#include "arfs/core/system.hpp"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/common/log.hpp"

namespace arfs::core {

/// Reads peer applications' committed stable variables by polling the
/// processor currently holding the peer's region (which may itself have
/// failed — polling stable storage of failed processors is the fail-stop
/// model's recovery primitive).
class System::SystemPeerReader final : public PeerReader {
 public:
  explicit SystemPeerReader(const System& system) : system_(&system) {}

  [[nodiscard]] Expected<storage::Value> read_peer(
      AppId peer, const std::string& key) const override {
    const std::optional<std::size_t> pos = system_->spec_.app_index(peer);
    if (!pos.has_value() || system_->region_host_.empty()) {
      return unexpected("peer app has no stable region");
    }
    // Peer reads happen every frame for every dependency edge: the key is
    // looked up as (prefix, key) without building the concatenation.
    const std::string& prefix = system_->regions_[*pos].prefix();
    const storage::StableStorage& store =
        system_->group_.processor(system_->region_host_[*pos]).poll_stable();
    if (const auto id = store.find_key(prefix, key)) return store.read(*id);
    return store.read(prefix + key);  // the store's own missing-key error
  }

 private:
  const System* system_;
};

namespace {

/// All processors any configuration places an application on, deduplicated
/// by sort + unique (the old linear-scan dedup was quadratic in the fleet
/// size, which large synthetic specs actually hit).
std::vector<ProcessorId> placement_processors(const ReconfigSpec& spec) {
  std::vector<ProcessorId> out;
  for (const auto& [id, config] : spec.configs()) {
    const auto& used = config.processors_used();
    out.insert(out.end(), used.begin(), used.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

const char* directive_name(DirectiveKind kind) {
  switch (kind) {
    case DirectiveKind::kNone:       return "normal";
    case DirectiveKind::kHalt:       return "halt";
    case DirectiveKind::kPrepare:    return "prepare";
    case DirectiveKind::kInitialize: return "initialize";
  }
  return "?";
}

}  // namespace

System::System(const ReconfigSpec& spec, SystemOptions options)
    : spec_(spec), options_(options), clock_(options.frame_length),
      activity_(options.detection_threshold), scram_(spec, options.scram),
      noise_rng_(options.noise_seed), trace_(options.frame_length) {
  spec.validate();
  require(options.heartbeat_loss_prob >= 0.0 &&
              options.heartbeat_loss_prob < 1.0,
          "heartbeat loss probability must be in [0, 1)");

  std::uint32_t max_id = 0;
  for (const ProcessorId p : placement_processors(spec)) {
    group_.add_processor(p);
    max_id = std::max(max_id, p.value() + 1);
  }
  scram_proc_ = ProcessorId{max_id};
  group_.add_processor(scram_proc_);
  if (options.durable_storage) {
    for (const ProcessorId p : group_.processor_ids()) {
      group_.processor(p).enable_durability(
          storage::durable::make_memory_engine(options.durability));
    }
  }
  require(!options.journal_shipping || options.durable_storage,
          "journal_shipping requires durable_storage");
  require(options.quorum_replicas >= 1, "quorum_replicas must be at least 1");
  require(options.quorum_replicas == 1 || options.journal_shipping,
          "quorum_replicas requires journal_shipping");
  if (options.journal_shipping) {
    storage::durable::quorum::QuorumOptions qopts;
    qopts.replicas = options.quorum_replicas;
    qopts.member_durability = options.durability;
    for (const ProcessorId p : group_.processor_ids()) {
      storage::durable::DurabilityEngine* engine =
          group_.processor(p).durability();
      ensure(engine != nullptr, "durable processor without engine");
      quorum_channels_.emplace(std::piecewise_construct,
                               std::forward_as_tuple(p),
                               std::forward_as_tuple(*engine, qopts));
    }
  }

  spec.factors().initialize(environment_);
  for (const env::FactorSpec& f : spec.factors().factors()) {
    monitors_.emplace_back(spec.factors(), f.id);
  }

  const std::size_t n = spec.apps().size();
  apps_.resize(n);
  storage::StableStorage& scram_stable = group_.processor(scram_proc_).stable();
  for (std::size_t pos = 0; pos < n; ++pos) {
    const std::string id = std::to_string(spec.apps()[pos].id.value());
    regions_.emplace_back("a" + id + "/");
    scram_status_key_.emplace_back(
        pos, scram_stable.intern("scram/a" + id + "/status"));
  }
  std::sort(scram_status_key_.begin(), scram_status_key_.end(),
            [&scram_stable](const auto& a, const auto& b) {
              return scram_stable.key_name(a.second) <
                     scram_stable.key_name(b.second);
            });
  forced_overrun_.assign(n, Forced::kUnset);
  forced_fault_.assign(n, Forced::kUnset);
  mailboxes_.assign(n, nullptr);

  peer_reader_ = std::make_unique<SystemPeerReader>(*this);
}

System::~System() = default;

void System::add_app(std::unique_ptr<ReconfigurableApp> app) {
  require(app != nullptr, "null application");
  require(!started_, "cannot add applications after the system started");
  const std::optional<std::size_t> pos = spec_.app_index(app->id());
  require(pos.has_value(), "application was not declared in the spec");
  require(apps_[*pos] == nullptr, "application added twice");
  apps_[*pos] = std::move(app);
  ++apps_added_;
}

void System::set_fault_plan(sim::FaultPlan plan) {
  fault_plan_ = std::move(plan);
}

void System::bind_processor_factor(ProcessorId processor, FactorId factor) {
  require(group_.has_processor(processor), "unknown processor");
  require(spec_.factors().declared(factor),
          "processor factor must be declared in the spec");
  processor_factors_[processor] = factor;
}

void System::add_env_hook(EnvHook hook) {
  require(static_cast<bool>(hook), "null environment hook");
  env_hooks_.push_back(std::move(hook));
}

void System::set_factor(FactorId factor, std::int64_t value) {
  environment_.set(factor, value, clock_.now());
}

ReconfigurableApp& System::app(AppId id) {
  const std::optional<std::size_t> pos = spec_.app_index(id);
  require(pos.has_value() && apps_[*pos] != nullptr, "unknown application id");
  return *apps_[*pos];
}

ProcessorId System::region_host(AppId app) const {
  const std::optional<std::size_t> pos = spec_.app_index(app);
  require(pos.has_value() && !region_host_.empty(),
          "app has no stable region yet");
  return region_host_[*pos];
}

void System::raise_forced(AppId app, std::vector<Forced>& flags,
                          std::vector<AppId>& stray) {
  if (const std::optional<std::size_t> pos = spec_.app_index(app)) {
    flags[*pos] = Forced::kRaised;
    return;
  }
  const auto it = std::lower_bound(stray.begin(), stray.end(), app);
  if (it == stray.end() || *it != app) stray.insert(it, app);
}

const FunctionalSpec& System::spec_of_app(std::size_t pos,
                                          SpecId spec) const {
  // An app only ever runs one of its own few specs: scan those first.
  for (const FunctionalSpec& fs : spec_.apps()[pos].specs) {
    if (fs.id == spec) return fs;
  }
  return spec_.spec(spec);
}

void System::refresh_mailboxes() {
  const std::vector<AppDecl>& decls = spec_.apps();
  for (std::size_t i = 0; i < decls.size(); ++i) {
    mailboxes_[i] = router_.has_endpoint(decls[i].id)
                        ? &router_.endpoint(decls[i].id)
                        : nullptr;
  }
}

void System::run(Cycle frames) {
  for (Cycle i = 0; i < frames; ++i) run_frame();
}

void System::apply_fault_event(const sim::FaultEvent& event, Cycle cycle,
                               SimTime now) {
  ++stats_.fault_events_applied;
  switch (event.kind) {
    case sim::FaultKind::kProcessorFailStop: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      failstop::Processor& proc = group_.processor(event.processor);
      if (!proc.running()) break;
      proc.fail(cycle);
      if (proc.last_recovery().has_value()) {
        const storage::durable::RecoveryReport& report =
            *proc.last_recovery();
        if (report.journal_truncated) ++stats_.journal_truncations;
        if (report.journal_truncated || proc.lost_epochs() > 0) {
          // The recovered store is older than the state the applications
          // last observed: a torn/corrupt tail was discarded, or group-
          // commit lag lost whole frame commits. Silent resume would run
          // applications whose precondition no longer holds — tell the
          // SCRAM so it can force a re-initialization (journal-aware
          // recovery, ScramOptions::reinit_on_lossy_recovery).
          ++stats_.lossy_recoveries;
          failstop::FailureSignal signal;
          signal.at = now;
          signal.cycle = cycle;
          signal.kind = failstop::SignalKind::kLossyRecovery;
          signal.processor = event.processor;
          signal.detail =
              "recovery rolled back " + std::to_string(proc.lost_epochs()) +
              " commit epoch(s)" +
              (report.journal_truncated ? "; journal tail truncated" : "");
          bank_.raise(std::move(signal));
        }
      }
      if (!region_host_.empty()) {
        for (const std::size_t pos : spec_.apps_by_id()) {
          if (region_host_[pos] == event.processor) {
            apps_[pos]->on_host_failure();
          }
        }
      }
      break;
    }
    case sim::FaultKind::kProcessorRepair: {
      failstop::Processor& proc = group_.processor(event.processor);
      if (proc.running()) break;
      proc.repair(cycle);
      break;
    }
    case sim::FaultKind::kEnvironmentChange:
      environment_.set(event.factor, event.new_value, now);
      break;
    case sim::FaultKind::kTimingOverrun:
      raise_forced(event.app, forced_overrun_, stray_overrun_);
      break;
    case sim::FaultKind::kSoftwareFault:
      raise_forced(event.app, forced_fault_, stray_fault_);
      break;
    case sim::FaultKind::kJournalSyncFail:
    case sim::FaultKind::kJournalTornWrite:
    case sim::FaultKind::kJournalBitFlip: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      failstop::Processor& proc = group_.processor(event.processor);
      storage::durable::DurabilityEngine* engine = proc.durability();
      if (engine == nullptr) break;  // no device to hurt; modeled as benign
      auto& device = engine->journal();
      if (event.kind == sim::FaultKind::kJournalSyncFail) {
        device.fail_next_sync();
      } else if (event.kind == sim::FaultKind::kJournalTornWrite) {
        device.tear_on_crash(event.new_value > 0
                                 ? static_cast<std::size_t>(event.new_value)
                                 : 7);
      } else {
        device.corrupt_bit(static_cast<std::uint64_t>(event.new_value));
      }
      ++stats_.journal_faults_injected;
      break;
    }
    case sim::FaultKind::kQuorumMemberFail:
    case sim::FaultKind::kQuorumMemberRepair: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      const auto it = quorum_channels_.find(event.processor);
      if (it == quorum_channels_.end()) break;  // no cohort; modeled benign
      const auto member = static_cast<std::uint32_t>(event.new_value);
      if (member >= it->second.member_count()) break;
      if (it->second.member_retired(member)) break;
      if (event.kind == sim::FaultKind::kQuorumMemberFail) {
        fail_quorum_member(event.processor, member);
      } else {
        repair_quorum_member(event.processor, member);
      }
      break;
    }
  }
}

const storage::durable::quorum::QuorumGroup& System::quorum_group(
    ProcessorId p) const {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no quorum cohort");
  return it->second;
}

storage::durable::quorum::QuorumGroup& System::quorum_group(ProcessorId p) {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no quorum cohort");
  return it->second;
}

void System::fail_quorum_member(ProcessorId p, std::uint32_t member) {
  storage::durable::quorum::QuorumGroup& group = quorum_group(p);
  require(member < group.member_count(), "quorum member id out of range");
  if (group.member_retired(member) || !group.member_live(member)) return;
  const bool majority_lost = group.fail_member(member);
  ++stats_.quorum_member_failures;
  if (!majority_lost) return;
  // The cohort can no longer acknowledge commits by majority: frames keep
  // committing on the source, but their durability boundary stops advancing
  // and a relocation could only warm-start from a minority member. Tell the
  // SCRAM, like lossy recovery does.
  ++stats_.quorum_losses;
  failstop::FailureSignal s;
  s.at = clock_.now();
  s.cycle = clock_.current_frame();
  s.kind = failstop::SignalKind::kQuorumLost;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " lost its live majority (" + std::to_string(group.live_count()) +
             "/" + std::to_string(group.member_count()) + " live)";
  bank_.raise(std::move(s));
}

void System::repair_quorum_member(ProcessorId p, std::uint32_t member) {
  storage::durable::quorum::QuorumGroup& group = quorum_group(p);
  require(member < group.member_count(), "quorum member id out of range");
  if (group.member_retired(member) || group.member_live(member)) return;
  const bool majority_restored = group.repair_member(member);
  ++stats_.quorum_member_repairs;
  if (!majority_restored) return;
  ++stats_.quorum_restores;
  failstop::FailureSignal s;
  s.at = clock_.now();
  s.cycle = clock_.current_frame();
  s.kind = failstop::SignalKind::kQuorumDurable;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " regained its live majority";
  bank_.raise(std::move(s));
}

bool System::execution_host(std::size_t pos, const Directive& directive,
                            ProcessorId& host) const {
  ensure(!region_host_.empty(), "app region host unset");
  ProcessorId candidate = region_host_[pos];
  if ((directive.kind == DirectiveKind::kPrepare ||
       directive.kind == DirectiveKind::kInitialize) &&
      directive.target_spec.has_value()) {
    // The target host (the SCRAM's plan carries it) if the app runs in the
    // target configuration, none while that host is down. An app that is
    // off there winds down on its old host if it survives, else it is
    // trivially complete.
    candidate = directive.target_host;
  }
  if (!group_.processor(candidate).running()) return false;
  host = candidate;
  return true;
}

void System::relocate_region_if_needed(std::size_t pos, ProcessorId to,
                                       Cycle cycle) {
  const ProcessorId from = region_host_[pos];
  if (from == to) return;
  const AppId app = spec_.apps()[pos].id;
  const std::string& prefix = regions_[pos].prefix();

  const auto quorum_it = quorum_channels_.find(from);
  if (quorum_it != quorum_channels_.end()) {
    // Warm start: drain the un-shipped tail into every live cohort member
    // (reseeding lost cursors), then relocate from the first member — leader
    // first, then the remaining live members — whose store mirrors the
    // source's commit boundary exactly: the bus carried only the tail, not
    // the full encoded region. Any fingerprint-matched member serves; a
    // leader change between frames never forces a full copy.
    storage::durable::quorum::QuorumGroup& cohort = quorum_it->second;
    failstop::Processor& source = group_.processor(from);
    const ShipCatchUp caught = ship_catch_up(from);
    for (const storage::durable::quorum::MemberId m :
         cohort.warm_start_order()) {
      if (cohort.member_needs_full_copy(m)) continue;
      if (cohort.replica(m).store().fingerprint() !=
          source.poll_stable().fingerprint()) {
        continue;
      }
      const std::size_t copied = StableRegion::relocate(
          cohort.replica(m).store(), group_.processor(to).stable(), prefix);
      region_host_[pos] = to;
      ++stats_.region_relocations;
      ++stats_.warm_relocations;
      // No avoided-bytes credit when this member's warmth was bought by a
      // full-copy reseed since the last claim (the copy already paid).
      if (cohort.take_warm_credit(m)) {
        stats_.full_copy_bytes_avoided +=
            storage::durable::encoded_state_bytes(source.poll_stable(),
                                                  prefix);
      }
      log_debug("system", "cycle ", cycle, ": warm-relocated region of app ",
                app.value(), " from processor ", from.value(), " to ",
                to.value(), " via quorum member ", m, " (", copied, " keys, ",
                caught.bytes, " tail bytes shipped)");
      return;
    }
    // No member converged on the source's boundary (every member is down,
    // or a sync failure left the boundary un-shippable): full copy from the
    // source (reseeds already ran inside the catch-up).
    ++stats_.full_copy_relocations;
    stats_.full_copy_bytes +=
        storage::durable::encoded_state_bytes(source.poll_stable(), prefix);
  } else {
    // No replica cohort: every relocation moves the full encoded region.
    ++stats_.full_copy_relocations;
    stats_.full_copy_bytes += storage::durable::encoded_state_bytes(
        group_.processor(from).poll_stable(), prefix);
  }

  const std::size_t copied = StableRegion::relocate(
      group_.processor(from).poll_stable(), group_.processor(to).stable(),
      prefix);
  region_host_[pos] = to;
  ++stats_.region_relocations;
  log_debug("system", "cycle ", cycle, ": relocated region of app ",
            app.value(), " from processor ", from.value(), " to ",
            to.value(), " (", copied, " keys)");
}

void System::note_ship_round(
    ProcessorId source,
    const storage::durable::quorum::QuorumGroup::Round& round) {
  stats_.ship_bytes_total += round.bytes;
  if (round.reseeds == 0) return;
  // Every reseed of one round copied the same committed source store.
  stats_.ship_reseeds += round.reseeds;
  const storage::StableStorage& store = group_.processor(source).poll_stable();
  stats_.full_copy_bytes +=
      round.reseeds * storage::durable::encoded_state_bytes(store);
}

void System::pump_quorum_channels() {
  for (auto& [pid, cohort] : quorum_channels_) {
    stats_.ship_slots_polled += cohort.member_count();
    note_ship_round(pid, cohort.ship_round(group_.processor(pid).poll_stable(),
                                           options_.ship_slot_bytes));
  }
}

bool System::has_ship_channel(ProcessorId p) const {
  return quorum_channels_.find(p) != quorum_channels_.end();
}

const storage::durable::ShippedReplica& System::ship_replica(
    ProcessorId p) const {
  const storage::durable::quorum::QuorumGroup& group = quorum_group(p);
  const std::optional<storage::durable::quorum::MemberId> leader =
      group.leader();
  require(leader.has_value(), "quorum cohort has no live member");
  return group.replica(*leader);
}

System::ShipCatchUp System::ship_catch_up(ProcessorId p) {
  storage::durable::quorum::QuorumGroup& cohort = quorum_group(p);
  failstop::Processor& proc = group_.processor(p);
  if (proc.running()) {
    // Halt-boundary flush: only synced bytes ever ship.
    if (auto* engine = proc.durability()) (void)engine->sync_now();
  }
  const storage::durable::quorum::QuorumGroup::Round round =
      cohort.ship_round(proc.poll_stable(),
                        storage::durable::quorum::QuorumGroup::kCatchUp);
  note_ship_round(p, round);
  stats_.relocation_catchup_bytes += round.bytes;
  return {.bytes = round.bytes, .reseeded = round.reseeds > 0};
}

namespace {

/// The digest's read of a SystemCheckpoint, whose tables are already an
/// id-ordered map and AppId-sorted vectors. Same accessors as
/// System::LiveState.
class CheckpointState {
 public:
  explicit CheckpointState(const SystemCheckpoint& cp) : cp_(cp) {}

  [[nodiscard]] Cycle frame() const { return cp_.frame; }
  [[nodiscard]] SimTime now() const { return cp_.now; }
  template <class Visit>
  void each_processor(Visit visit) const {
    for (const auto& [pid, p] : cp_.processors) visit(pid, p.view());
  }
  [[nodiscard]] const env::Environment& environment() const {
    return cp_.environment;
  }
  [[nodiscard]] const failstop::DetectorBank& bank() const { return cp_.bank; }
  [[nodiscard]] const rtos::HealthMonitor& health() const {
    return cp_.health;
  }
  [[nodiscard]] const Scram::Checkpoint& scram() const { return cp_.scram; }
  template <class Visit>
  void each_app(Visit visit) const {
    for (const auto& [id, a] : cp_.apps) visit(id, a.view());
  }
  template <class Visit>
  void each_region_host(Visit visit) const {
    for (const auto& [app, host] : cp_.region_host) visit(app, host);
  }
  [[nodiscard]] const sim::FaultPlan& fault_plan() const {
    return cp_.fault_plan;
  }
  template <class Visit>
  void each_forced(Visit visit) const {
    for (const auto* flags : {&cp_.forced_overrun, &cp_.forced_fault}) {
      for (const auto& [app, raised] : *flags) visit(app, raised);
    }
  }
  [[nodiscard]] const MessageRouter& router() const { return cp_.router; }
  [[nodiscard]] bool deadline_alarm_raised() const {
    return cp_.deadline_alarm_raised;
  }
  [[nodiscard]] std::uint64_t noise_rng_state() const {
    return cp_.noise_rng_state;
  }
  /// The trace's row count + 1, or 0 without a trace.
  [[nodiscard]] std::uint64_t trace_word() const {
    return cp_.trace.has_value() ? cp_.trace->size() + 1 : 0;
  }
  template <class Visit>
  void each_cohort(Visit visit) const {
    for (const auto& [pid, group] : cp_.quorum_channels) visit(pid, group);
  }
  [[nodiscard]] const SystemStats& stats() const { return cp_.stats; }
  [[nodiscard]] bool started() const { return cp_.started; }

 private:
  const SystemCheckpoint& cp_;
};

/// A device's size, synced size and every logical byte, read in 4 KiB
/// blocks so nothing is allocated.
std::uint64_t fold_device(std::uint64_t h,
                          const storage::durable::JournalBackend& device) {
  h = fnv_mix(h, device.size());
  h = fnv_mix(h, device.synced_size());
  std::uint8_t buf[4096];
  std::uint64_t offset = 0;
  for (;;) {
    const std::size_t n = device.read(offset, buf, sizeof buf);
    if (n == 0) break;
    h = fnv_mix_bytes(h, {buf, n});
    offset += n;
  }
  return h;
}

std::uint64_t fold_engine(std::uint64_t h,
                          const storage::durable::EngineView& engine) {
  h = fold_device(h, *engine.journal);
  h = fold_device(h, *engine.snapshots);
  h = fnv_mix(h, engine.appended_epoch);
  h = fnv_mix(h, engine.journal_generation);
  h = fnv_mix(h, engine.retained_tail.size());
  h = fnv_mix_bytes(h, engine.retained_tail);
  h = fnv_mix(h, engine.rebase_ok ? 1 : 0);
  h = fnv_mix(h, engine.rebase_epoch);
  h = fnv_mix(h, engine.ship_horizon);
  h = fnv_mix(h, engine.adaptive_watermark_fp);
  h = fnv_mix(h, engine.reconfig_pressure ? 1 : 0);
  h = fnv_mix(h, 0);  // retired state-flush cycle, kept so digests don't move
  return h;
}

std::uint64_t fold_processor(std::uint64_t h,
                             const failstop::ProcessorView& processor) {
  h = fnv_mix(h, static_cast<std::uint64_t>(processor.state));
  h = fnv_mix(h, processor.stable->fingerprint());
  h = fnv_mix(h, processor.stable->commit_epochs());
  h = fnv_mix(h, processor.volatile_store->fingerprint());
  h = fnv_mix(h, processor.lost_epochs);
  h = fnv_mix(h, processor.failed_at.has_value() ? *processor.failed_at + 1
                                                 : 0);
  h = fnv_mix(h, processor.failures);
  h = fnv_mix(h, processor.durability.has_value() ? 1 : 0);
  if (processor.durability.has_value()) {
    h = fold_engine(h, *processor.durability);
  }
  return h;
}

std::uint64_t fold_replica(std::uint64_t h,
                           const storage::durable::ReplicaView& replica) {
  h = fnv_mix(h, replica.store->fingerprint());
  h = fnv_mix(h, replica.store->commit_epochs());
  h = fnv_mix(h, replica.cursor.generation);
  h = fnv_mix(h, replica.cursor.offset);
  h = fnv_mix(h, replica.cursor.epoch);
  h = fnv_mix(h, replica.dict.size());
  for (const std::string& key : replica.dict) {
    h = fnv_mix_bytes(h, key);
    h = fnv_mix(h, key.size());
  }
  h = fnv_mix(h, replica.pending.size());
  h = fnv_mix_bytes(h, replica.pending);
  h = fnv_mix(h, replica.engine.has_value() ? 1 : 0);
  if (replica.engine.has_value()) h = fold_engine(h, *replica.engine);
  return h;
}

/// One replica cohort, live or a checkpoint's spare.
std::uint64_t fold_cohort(
    std::uint64_t h, const storage::durable::quorum::QuorumGroup& group) {
  using storage::durable::quorum::MemberId;
  const storage::durable::quorum::QuorumView q = group.view();
  h = fnv_mix(h, q.members);
  for (MemberId id = 0; id < q.members; ++id) {
    const storage::durable::quorum::MemberView m = group.member_view(id);
    h = fold_replica(h, m.replica);
    h = fnv_mix(h, m.last_applied);
    h = fnv_mix(h, (m.live ? 4u : 0u) | (m.retired ? 2u : 0u) |
                       (m.needs_full_copy ? 1u : 0u));
    h = fnv_mix(h, m.warm_credit ? 1 : 0);
    h = fnv_mix(h, m.consecutive_corrupt);
  }
  h = fnv_mix(h, q.old_voters.size());
  for (const MemberId v : q.old_voters) h = fnv_mix(h, v);
  h = fnv_mix(h, q.new_voters.size());
  for (const MemberId v : q.new_voters) h = fnv_mix(h, v);
  h = fnv_mix(h, q.reconfiguring ? 1 : 0);
  h = fnv_mix(h, q.reconfig_epoch);
  h = fnv_mix(h, q.commit_id);
  h = fnv_mix(h, q.leader.has_value() ? *q.leader + 1 : 0);
  const storage::durable::quorum::QuorumStats& st = *q.stats;
  for (const std::uint64_t word :
       {st.slots_polled, st.batches_shipped, st.bytes_shipped, st.rebases,
        st.corrupt_batches, st.fallbacks, st.reseeds, st.elections,
        st.member_failures, st.member_repairs, st.commit_advances,
        st.membership_changes}) {
    h = fnv_mix(h, word);
  }
  return h;
}

/// The one system hash body (see SystemCheckpoint::digest()). `State` is a
/// CheckpointState or a System::LiveState. A checkpoint's processors and
/// cohorts are spares of the live ones, read through the same views
/// (ProcessorView, the cohorts' QuorumView), and its apps and SCRAM
/// through views both sides build (AppView, the SCRAM's fold_scram), so a
/// checkpoint and the running system hash alike.
template <class State>
std::uint64_t hash_system(const State& s) {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, s.frame());
  h = fnv_mix(h, static_cast<std::uint64_t>(s.now()));

  s.each_processor([&h](ProcessorId pid, const failstop::ProcessorView& p) {
    h = fnv_mix(h, pid.value());
    h = fold_processor(h, p);
  });

  const env::Environment& environment = s.environment();
  for (const auto& [factor, value] : environment.state()) {
    h = fnv_mix(h, factor.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(value));
  }
  h = fnv_mix(h, environment.change_count());

  h = fnv_mix(h, s.bank().pending());
  h = fnv_mix(h, s.bank().total_raised());
  h = fnv_mix(h, s.health().overrun_count());
  h = fnv_mix(h, s.health().fault_count());
  h = fnv_mix(h, s.health().events().size());

  h = fold_scram(h, s.scram());

  s.each_app([&h](AppId id, const AppView& a) {
    h = fnv_mix(h, id.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(a.state));
    h = fnv_mix(h, a.spec.has_value() ? a.spec->value() + 1 : 0);
    h = fnv_mix(h, (a.post_ok ? 4u : 0u) | (a.trans_ok ? 2u : 0u) |
                       (a.pre_ok ? 1u : 0u));
    h = fnv_mix(h, a.domain.size());
    for (const std::uint64_t word : a.domain) h = fnv_mix(h, word);
  });

  s.each_region_host([&h](AppId app, ProcessorId host) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, host.value());
  });

  h = fnv_mix(h, s.fault_plan().size());
  h = fnv_mix(h, s.fault_plan().consumed());
  s.each_forced([&h](AppId app, bool raised) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, raised ? 1 : 0);
  });

  const MessagingStats& mail = s.router().stats();
  h = fnv_mix(h, mail.sent);
  h = fnv_mix(h, mail.delivered);
  h = fnv_mix(h, mail.dropped_dead_host);
  h = fnv_mix(h, mail.dropped_unknown);

  h = fnv_mix(h, s.deadline_alarm_raised() ? 1 : 0);
  h = fnv_mix(h, s.noise_rng_state());
  h = fnv_mix(h, s.trace_word());

  s.each_cohort([&h](ProcessorId pid, const auto& group) {
    h = fnv_mix(h, pid.value());
    h = fold_cohort(h, group);
  });

  const SystemStats& st = s.stats();
  for (const std::uint64_t word :
       {st.frames_run, st.fault_events_applied, st.region_relocations,
        st.deadline_violations, st.heartbeats_lost, st.false_alarms,
        st.true_detections, st.journal_faults_injected,
        st.journal_truncations, st.lossy_recoveries, st.ship_slots_polled,
        st.ship_bytes_total, st.relocation_catchup_bytes,
        st.warm_relocations, st.full_copy_relocations, st.full_copy_bytes,
        st.full_copy_bytes_avoided, st.ship_reseeds,
        st.quorum_member_failures, st.quorum_member_repairs,
        st.quorum_losses, st.quorum_restores}) {
    h = fnv_mix(h, word);
  }

  h = fnv_mix(h, s.started() ? 1 : 0);
  return h;
}

}  // namespace

std::uint64_t SystemCheckpoint::digest() const {
  return hash_system(CheckpointState(*this));
}

template <class Visit>
void System::each_forced(const std::vector<Forced>& flags,
                         const std::vector<AppId>& stray,
                         Visit&& visit) const {
  auto next_stray = stray.begin();
  for (const std::size_t pos : spec_.apps_by_id()) {
    const AppId id = spec_.apps()[pos].id;
    for (; next_stray != stray.end() && *next_stray < id; ++next_stray) {
      visit(*next_stray, true);
    }
    if (flags[pos] != Forced::kUnset) {
      visit(id, flags[pos] == Forced::kRaised);
    }
  }
  for (; next_stray != stray.end(); ++next_stray) visit(*next_stray, true);
}

void System::restore_forced(const std::vector<std::pair<AppId, bool>>& image,
                            std::vector<Forced>& flags,
                            std::vector<AppId>& stray) {
  std::fill(flags.begin(), flags.end(), Forced::kUnset);
  stray.clear();
  for (const auto& [id, flag] : image) {
    if (const std::optional<std::size_t> pos = spec_.app_index(id)) {
      flags[*pos] = flag ? Forced::kRaised : Forced::kClear;
    } else {
      stray.push_back(id);
    }
  }
}

SystemCheckpoint System::checkpoint() const {
  SystemCheckpoint cp;
  checkpoint_into(cp);
  return cp;
}

void System::checkpoint_into(SystemCheckpoint& cp) const {
  cp.frame = clock_.current_frame();
  cp.now = clock_.now();
  // An empty image gets a spare of each processor and, on the spare's
  // engine, of each cohort; a refresh copies into the spares it holds.
  for (const ProcessorId p : group_.processor_ids()) {
    const failstop::Processor& live = group_.processor(p);
    auto spare = cp.processors.find(p);
    if (spare == cp.processors.end()) {
      spare = cp.processors.emplace(p, live.spare()).first;
    }
    spare->second.restore_state(live);
  }
  cp.environment = environment_;
  cp.monitors = monitors_;
  cp.activity = activity_;
  cp.bank = bank_;
  cp.health = health_;
  scram_.checkpoint_into(cp.scram);
  const std::vector<AppDecl>& decls = spec_.apps();
  cp.apps.resize(apps_added_);
  auto next_app = cp.apps.begin();
  for (const std::size_t pos : spec_.apps_by_id()) {
    if (apps_[pos] == nullptr) continue;
    next_app->first = decls[pos].id;
    apps_[pos]->checkpoint_into(next_app->second);
    ++next_app;
  }
  cp.region_host.clear();
  if (!region_host_.empty()) {
    cp.region_host.reserve(decls.size());
    for (const std::size_t pos : spec_.apps_by_id()) {
      cp.region_host.emplace_back(decls[pos].id, region_host_[pos]);
    }
  }
  cp.fault_plan = fault_plan_;
  cp.forced_overrun.clear();
  each_forced(forced_overrun_, stray_overrun_, [&cp](AppId id, bool raised) {
    cp.forced_overrun.emplace_back(id, raised);
  });
  cp.forced_fault.clear();
  each_forced(forced_fault_, stray_fault_, [&cp](AppId id, bool raised) {
    cp.forced_fault.emplace_back(id, raised);
  });
  cp.router = router_;
  cp.deadline_alarm_raised = deadline_alarm_raised_;
  cp.noise_rng_state = noise_rng_.state();
  cp.trace = trace_;
  for (const auto& [pid, channel] : quorum_channels_) {
    auto spare = cp.quorum_channels.find(pid);
    if (spare == cp.quorum_channels.end()) {
      spare = cp.quorum_channels
                  .try_emplace(pid, *cp.processors.at(pid).durability(),
                               channel.options())
                  .first;
    }
    spare->second.restore_state(channel);
  }
  cp.stats = stats_;
  cp.started = started_;
}

void System::restore(const SystemCheckpoint& cp) {
  require(cp.processors.size() == group_.size(),
          "checkpoint processor set does not match this system");
  require(cp.apps.size() == apps_added_,
          "checkpoint application set does not match this system");
  require(cp.quorum_channels.size() == quorum_channels_.size(),
          "checkpoint quorum-cohort set does not match this system");
  require(cp.monitors.size() == monitors_.size(),
          "checkpoint monitor set does not match this system");
  require(cp.activity.has_value() && cp.trace.has_value(),
          "checkpoint is missing its platform monitors");

  clock_.restore(cp.frame, cp.now);
  for (const auto& [pid, pcp] : cp.processors) {
    require(group_.has_processor(pid), "checkpoint names unknown processor");
    group_.processor(pid).restore_state(pcp);
  }
  environment_ = cp.environment;
  monitors_ = cp.monitors;
  activity_ = *cp.activity;
  bank_ = cp.bank;
  health_ = cp.health;
  scram_.restore_state(cp.scram);
  for (const auto& [id, acp] : cp.apps) {
    const std::optional<std::size_t> pos = spec_.app_index(id);
    require(pos.has_value() && apps_[*pos] != nullptr,
            "checkpoint names unknown application");
    apps_[*pos]->restore_state(acp);
  }
  region_host_.clear();
  if (!cp.region_host.empty()) {
    region_host_.resize(apps_.size());
    for (const auto& [id, host] : cp.region_host) {
      const std::optional<std::size_t> pos = spec_.app_index(id);
      require(pos.has_value(), "checkpoint places an unknown application");
      region_host_[*pos] = host;
    }
  }
  fault_plan_ = cp.fault_plan;
  restore_forced(cp.forced_overrun, forced_overrun_, stray_overrun_);
  restore_forced(cp.forced_fault, forced_fault_, stray_fault_);
  router_ = cp.router;
  refresh_mailboxes();
  deadline_alarm_raised_ = cp.deadline_alarm_raised;
  noise_rng_.set_state(cp.noise_rng_state);
  trace_ = *cp.trace;
  for (const auto& [pid, qcp] : cp.quorum_channels) {
    const auto it = quorum_channels_.find(pid);
    require(it != quorum_channels_.end(),
            "checkpoint names unknown quorum cohort");
    it->second.restore_state(qcp);
  }
  stats_ = cp.stats;
  started_ = cp.started;
}

/// The digest's read of the running system: processors in ascending id and
/// the dense per-app tables in ascending AppId order, as a checkpoint holds
/// them. Same accessors as CheckpointState.
class System::LiveState {
 public:
  LiveState(const System& s, std::vector<std::uint64_t>& domain)
      : s_(s), domain_(domain) {}

  [[nodiscard]] Cycle frame() const { return s_.clock_.current_frame(); }
  [[nodiscard]] SimTime now() const { return s_.clock_.now(); }
  template <class Visit>
  void each_processor(Visit visit) const {
    s_.group_.for_each_by_id(
        [&visit](const failstop::Processor& p) { visit(p.id(), p.view()); });
  }
  [[nodiscard]] const env::Environment& environment() const {
    return s_.environment_;
  }
  [[nodiscard]] const failstop::DetectorBank& bank() const { return s_.bank_; }
  [[nodiscard]] const rtos::HealthMonitor& health() const {
    return s_.health_;
  }
  [[nodiscard]] const Scram& scram() const { return s_.scram_; }
  /// Apps not added yet are skipped, as a checkpoint holds none of them.
  template <class Visit>
  void each_app(Visit visit) const {
    for (const std::size_t pos : s_.spec_.apps_by_id()) {
      if (s_.apps_[pos] == nullptr) continue;
      visit(s_.spec_.apps()[pos].id, s_.apps_[pos]->view(domain_));
    }
  }
  /// Nothing before the first frame places the regions.
  template <class Visit>
  void each_region_host(Visit visit) const {
    if (s_.region_host_.empty()) return;
    for (const std::size_t pos : s_.spec_.apps_by_id()) {
      visit(s_.spec_.apps()[pos].id, s_.region_host_[pos]);
    }
  }
  [[nodiscard]] const sim::FaultPlan& fault_plan() const {
    return s_.fault_plan_;
  }
  template <class Visit>
  void each_forced(Visit visit) const {
    s_.each_forced(s_.forced_overrun_, s_.stray_overrun_, visit);
    s_.each_forced(s_.forced_fault_, s_.stray_fault_, visit);
  }
  [[nodiscard]] const MessageRouter& router() const { return s_.router_; }
  [[nodiscard]] bool deadline_alarm_raised() const {
    return s_.deadline_alarm_raised_;
  }
  [[nodiscard]] std::uint64_t noise_rng_state() const {
    return s_.noise_rng_.state();
  }
  [[nodiscard]] std::uint64_t trace_word() const {
    return s_.trace_.size() + 1;
  }
  template <class Visit>
  void each_cohort(Visit visit) const {
    for (const auto& [pid, channel] : s_.quorum_channels_) {
      visit(pid, channel);
    }
  }
  [[nodiscard]] const SystemStats& stats() const { return s_.stats_; }
  [[nodiscard]] bool started() const { return s_.started_; }

 private:
  const System& s_;
  std::vector<std::uint64_t>& domain_;
};

std::uint64_t System::digest() const {
  // The apps' domain words go through one buffer per thread: reused, so a
  // warm digest allocates nothing, and never shared between threads.
  thread_local std::vector<std::uint64_t> domain;
  return hash_system(LiveState(*this, domain));
}

void System::publish_processor_factors(SimTime now) {
  for (const auto& [processor, factor] : processor_factors_) {
    const std::int64_t value = group_.processor(processor).running() ? 0 : 1;
    environment_.set(factor, value, now);
  }
}

void System::run_frame() {
  const Cycle cycle = clock_.current_frame();
  const SimTime t0 = clock_.now();
  const std::vector<AppDecl>& decls = spec_.apps();

  if (!started_) {
    require(apps_added_ == decls.size(),
            "every declared application must be added before running");
    const Configuration& initial = spec_.config(spec_.initial_config());
    region_host_.resize(decls.size());
    for (std::size_t i = 0; i < decls.size(); ++i) {
      const AppId id = decls[i].id;
      apps_[i]->force_spec(initial.spec_of(id));
      std::optional<ProcessorId> host = initial.host_of(id);
      if (!host.has_value()) {
        // Off initially: park the region on the first processor any
        // configuration would place the app on.
        for (const auto& [cid, config] : spec_.configs()) {
          if (const auto h = config.host_of(id); h.has_value()) {
            host = h;
            break;
          }
        }
      }
      region_host_[i] = host.value_or(scram_proc_);
    }
    group_.watch_all(activity_);
    for (const AppDecl& decl : decls) {
      router_.endpoint(decl.id);
    }
    refresh_mailboxes();
    if (options_.record_storage_history) {
      for (const ProcessorId p : group_.processor_ids()) {
        if (group_.processor(p).running()) {
          group_.processor(p).stable().enable_history(true);
        }
      }
    }
    started_ = true;
  }

  // 1. Physical/environment models.
  for (const EnvHook& hook : env_hooks_) hook(environment_, cycle, t0);

  // 2. Scheduled fault injection. The span views fault_plan_'s own events;
  // applying an event never touches the plan.
  for (const sim::FaultEvent& event : fault_plan_.consume_until(t0)) {
    apply_fault_event(event, cycle, t0);
  }
  publish_processor_factors(t0);

  // 3. Heartbeats and processor-failure detection. The noise model may
  // suppress a running processor's heartbeat; the detection threshold is
  // what filters such glitches from real fail-stops.
  if (options_.heartbeat_loss_prob <= 0.0) {
    group_.heartbeat_all(activity_);
  } else {
    for (const ProcessorId id : group_.processor_ids()) {
      if (!group_.processor(id).running()) continue;
      if (noise_rng_.chance(options_.heartbeat_loss_prob)) {
        ++stats_.heartbeats_lost;
        continue;
      }
      activity_.heartbeat(id);
    }
  }
  activity_.end_of_frame(cycle, t0, bank_);

  // 4. Virtual monitor applications sample the environment.
  env_signals_.clear();
  for (env::FactorMonitor& monitor : monitors_) {
    if (const auto s = monitor.sample(environment_, cycle, t0)) {
      env_signals_.push_back(*s);
    }
  }

  // 4b. Frame-boundary message delivery (messages sent during the previous
  // frame arrive now; receivers on fail-stopped hosts lose theirs).
  router_.exchange(cycle, [this](AppId app) {
    return group_.processor(region_host_[*spec_.app_index(app)]).running();
  });

  // 4c. Runtime SP3 watchdog: an in-progress reconfiguration that has
  // already consumed its whole T bound is a deadline violation — raised
  // once as a timing signal so the SCRAM (and the operator) see it.
  if (scram_.reconfiguring() && !deadline_alarm_raised_) {
    const std::optional<Cycle> started = scram_.active_start_cycle();
    const std::optional<ConfigId> target = scram_.target_config();
    if (started.has_value() && target.has_value()) {
      const std::optional<Cycle> bound =
          spec_.transition_bound(scram_.current_config(), *target);
      if (bound.has_value() && cycle - *started + 1 > *bound) {
        deadline_alarm_raised_ = true;
        ++stats_.deadline_violations;
        log_warn("system", "cycle ", cycle,
                 ": reconfiguration exceeded its T bound (", *bound,
                 " frames)");
        failstop::TimingMonitor().report_overrun(
            AppId{}, cycle, t0, bank_,
            "reconfiguration deadline exceeded");
      }
    }
  }

  // 5. The SCRAM consumes this frame's signals. Classify processor-failure
  // signals against ground truth for detector-quality accounting.
  bank_.drain_into(hw_signals_);
  for (const failstop::FailureSignal& s : hw_signals_) {
    if (s.kind != failstop::SignalKind::kProcessorFailure) continue;
    if (group_.processor(s.processor).running()) {
      ++stats_.false_alarms;
    } else {
      ++stats_.true_detections;
    }
  }
  const FramePlan& plan = scram_.begin_frame(
      cycle, t0, hw_signals_, env_signals_, environment_.state());
  if (plan.trigger_accepted) {
    for (const auto& application : apps_) application->mark_interrupted();
  }
  if (plan.retargeted) {
    for (const auto& application : apps_) application->rewind_to_halted();
  }
  // Either no directives at all (kNone for every app) or one per app.
  const auto directive_of = [&plan](std::size_t i) {
    return plan.directives.empty() ? Directive{} : plan.directives[i];
  };

  // Record the configuration_status protocol in the SCRAM's stable storage.
  if (group_.processor(scram_proc_).running()) {
    storage::StableStorage& scram_stable =
        group_.processor(scram_proc_).stable();
    for (const auto& [pos, key] : scram_status_key_) {
      scram_stable.write(key, directive_name(directive_of(pos).kind));
    }
  }

  // 6. Applications perform their unit of work for the frame. Processors
  // where a reconfiguration directive takes effect this frame are halt
  // boundaries: their frame commit must be durable before the new
  // configuration runs, whatever the group-commit sync policy buffers.
  phase_done_.assign(decls.size(), false);
  halt_boundary_hosts_.clear();
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const AppId id = decls[i].id;
    ReconfigurableApp& application = *apps_[i];
    const Directive directive = directive_of(i);

    ProcessorId host;
    StableRegion* region = nullptr;
    if (execution_host(i, directive, host)) {
      if (directive.kind != DirectiveKind::kNone) {
        halt_boundary_hosts_.push_back(host);
      }
      relocate_region_if_needed(i, host, cycle);
      region = &regions_[i];
      region->bind(group_.processor(host).stable());
    }

    ReconfigurableApp::Ctx ctx;
    ctx.cycle = cycle;
    ctx.now = t0;
    ctx.own = region;
    ctx.peers = peer_reader_.get();
    ctx.mail = mailboxes_[i];

    ReconfigurableApp::StepResult result =
        application.frame_step(ctx, directive);

    // Reading a forced flag leaves it cleared (kClear), raised or not.
    if (std::exchange(forced_fault_[i], Forced::kClear) == Forced::kRaised) {
      result.ok = false;
      result.fault_detail = "injected software fault";
    }

    // Budget enforcement applies to normal AFTA frames.
    if (directive.kind == DirectiveKind::kNone &&
        application.reconf_state() == trace::ReconfState::kNormal &&
        application.current_spec().has_value()) {
      const FunctionalSpec& fs = spec_of_app(i, *application.current_spec());
      SimDuration consumed = result.consumed;
      if (std::exchange(forced_overrun_[i], Forced::kClear) ==
          Forced::kRaised) {
        consumed = fs.budget_us + 100;
      }
      if (consumed > fs.budget_us) {
        health_.report_overrun(PartitionId{id.value()}, id, cycle, t0,
                               consumed, fs.budget_us, bank_);
      }
    }
    if (!result.ok) {
      health_.report_app_fault(PartitionId{id.value()}, id, cycle, t0,
                               result.fault_detail, bank_);
    }
    if (directive.kind != DirectiveKind::kNone) {
      phase_done_[i] = result.phase_done;
    }
  }

  // 7. The SCRAM collects completion reports; on completion, start signals.
  const FrameOutcome outcome = scram_.end_frame(cycle, phase_done_);
  if (outcome.completed) {
    // Only a frame that directed every app toward outcome.to completes, so
    // each app's directive already names its spec there.
    ensure(plan.target == outcome.to &&
               plan.directives.size() == decls.size(),
           "completion without a plan toward the new configuration");
    for (std::size_t i = 0; i < decls.size(); ++i) {
      apps_[i]->start(plan.directives[i].target_spec);
    }
    deadline_alarm_raised_ = false;
  }

  // 8. Frame-boundary commit and trace snapshot. The SCRAM's own processor
  // is a boundary too whenever it issued directives this frame — its
  // configuration_status records drive recovery decisions.
  const bool directives_issued = !plan.directives.empty();
  if (directives_issued) halt_boundary_hosts_.push_back(scram_proc_);
  std::sort(halt_boundary_hosts_.begin(), halt_boundary_hosts_.end());
  halt_boundary_hosts_.erase(
      std::unique(halt_boundary_hosts_.begin(), halt_boundary_hosts_.end()),
      halt_boundary_hosts_.end());
  // While a reconfiguration is in flight (or directives were issued this
  // frame), adaptive sync policies drop to their floor watermark: a halt
  // mid-transition should lose as little committed work as possible, so the
  // engines trade throughput for a tight durable boundary until the SCRAM
  // reports completion. Static policies are unaffected.
  // Each engine's pressure only shapes its own processor's commit, so one
  // pass sets it and commits.
  const bool reconfig_pressure = scram_.reconfiguring() || directives_issued;
  // The constructor creates the processors in ascending id order, so one
  // cursor over the sorted boundaries meets each of them in turn.
  auto boundary = halt_boundary_hosts_.cbegin();
  for (const ProcessorId p : group_.processor_ids()) {
    failstop::Processor& processor = group_.processor(p);
    if (auto* engine = processor.durability()) {
      engine->set_reconfig_pressure(reconfig_pressure);
    }
    const bool force =
        boundary != halt_boundary_hosts_.cend() && *boundary == p;
    if (force) ++boundary;
    processor.commit_frame(cycle, force);
  }
  ensure(boundary == halt_boundary_hosts_.cend(),
         "a halt boundary names no processor");
  // 8b. Journal shipping: each cohort member gets its one TDMA quorum slot
  // per round, moving at most the slot's byte budget of freshly-synced
  // journal toward its replica.
  if (!quorum_channels_.empty()) pump_quorum_channels();
  if (options_.record_trace) {
    record_snapshot(cycle, t0 + options_.frame_length);
  }

  ++stats_.frames_run;
  clock_.advance_frame();
}

void System::record_snapshot(Cycle cycle, SimTime frame_end) {
  // The rows are written in place into the trace's flat row array, in
  // ascending AppId order.
  const std::span<trace::AppRow> rows =
      trace_.append_frame(cycle, frame_end, scram_.current_config(),
                          environment_.state(), apps_.size());
  std::size_t r = 0;
  for (const std::size_t pos : spec_.apps_by_id()) {
    const ReconfigurableApp& application = *apps_[pos];
    trace::AppRow& row = rows[r++];
    row.first = spec_.apps()[pos].id;
    trace::AppSnapshot& snap = row.second;
    snap.reconf_st = application.reconf_state();
    snap.spec = application.current_spec();
    snap.host_running = group_.processor(region_host_[pos]).running();
    snap.postcondition_ok = application.postcondition_ok();
    snap.transition_ok = application.transition_ok();
    snap.precondition_ok = application.precondition_ok();
  }
}

}  // namespace arfs::core
