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
    if (!pos.has_value() || system_->state_.region_host.empty()) {
      return unexpected("peer app has no stable region");
    }
    // Peer reads happen every frame for every dependency edge: the key is
    // looked up as (prefix, key) without building the concatenation.
    const std::string& prefix = system_->regions_[*pos].prefix();
    const storage::StableStorage& store =
        system_->group_.processor(system_->state_.region_host[*pos])
            .poll_stable();
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

SystemState::SystemState(const SystemOptions& options)
    : clock(options.frame_length), activity(options.detection_threshold),
      noise_rng(options.noise_seed), trace(options.frame_length) {}

System::System(const ReconfigSpec& spec, SystemOptions options)
    : spec_(spec), options_(options), scram_(spec, options.scram),
      state_(options) {
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
    const storage::durable::quorum::QuorumOptions qopts{
        .replicas = options.quorum_replicas};
    for (const ProcessorId p : group_.processor_ids()) {
      storage::durable::DurabilityEngine* engine =
          group_.processor(p).durability();
      ensure(engine != nullptr, "durable processor without engine");
      quorum_channels_.emplace(std::piecewise_construct,
                               std::forward_as_tuple(p),
                               std::forward_as_tuple(*engine, qopts));
    }
  }

  spec.factors().initialize(state_.environment);
  for (const env::FactorSpec& f : spec.factors().factors()) {
    state_.monitors.emplace_back(spec.factors(), f.id);
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
  state_.forced_overrun.assign(n, Forced::kUnset);
  state_.forced_fault.assign(n, Forced::kUnset);
  mailboxes_.assign(n, nullptr);

  peer_reader_ = std::make_unique<SystemPeerReader>(*this);
}

System::~System() = default;

void System::add_app(std::unique_ptr<ReconfigurableApp> app) {
  require(app != nullptr, "null application");
  require(!state_.started, "cannot add applications after the system started");
  const std::optional<std::size_t> pos = spec_.app_index(app->id());
  require(pos.has_value(), "application was not declared in the spec");
  require(apps_[*pos] == nullptr, "application added twice");
  apps_[*pos] = std::move(app);
  ++apps_added_;
}

void System::set_fault_plan(sim::FaultPlan plan) {
  state_.fault_plan = std::move(plan);
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
  state_.environment.set(factor, value, state_.clock.now());
}

ReconfigurableApp& System::app(AppId id) {
  const std::optional<std::size_t> pos = spec_.app_index(id);
  require(pos.has_value() && apps_[*pos] != nullptr, "unknown application id");
  return *apps_[*pos];
}

ProcessorId System::region_host(AppId app) const {
  const std::optional<std::size_t> pos = spec_.app_index(app);
  require(pos.has_value() && !state_.region_host.empty(),
          "app has no stable region yet");
  return state_.region_host[*pos];
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
    mailboxes_[i] = state_.router.has_endpoint(decls[i].id)
                        ? &state_.router.endpoint(decls[i].id)
                        : nullptr;
  }
}

void System::run(Cycle frames) {
  for (Cycle i = 0; i < frames; ++i) run_frame();
}

void System::apply_fault_event(const sim::FaultEvent& event, Cycle cycle,
                               SimTime now) {
  ++state_.stats.fault_events_applied;
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
        if (report.journal_truncated) ++state_.stats.journal_truncations;
        if (report.journal_truncated || proc.lost_epochs() > 0) {
          // The recovered store is older than the state the applications
          // last observed: a torn/corrupt tail was discarded, or group-
          // commit lag lost whole frame commits. Silent resume would run
          // applications whose precondition no longer holds — tell the
          // SCRAM so it can force a re-initialization (journal-aware
          // recovery, ScramOptions::reinit_on_lossy_recovery).
          ++state_.stats.lossy_recoveries;
          failstop::FailureSignal signal;
          signal.at = now;
          signal.cycle = cycle;
          signal.kind = failstop::SignalKind::kLossyRecovery;
          signal.processor = event.processor;
          signal.detail =
              "recovery rolled back " + std::to_string(proc.lost_epochs()) +
              " commit epoch(s)" +
              (report.journal_truncated ? "; journal tail truncated" : "");
          state_.bank.raise(std::move(signal));
        }
      }
      if (!state_.region_host.empty()) {
        for (const AppSlot& slot : spec_.apps_by_id()) {
          if (state_.region_host[slot.pos] == event.processor) {
            apps_[slot.pos]->on_host_failure();
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
      state_.environment.set(event.factor, event.new_value, now);
      break;
    case sim::FaultKind::kTimingOverrun:
      raise_forced(event.app, state_.forced_overrun, state_.stray_overrun);
      break;
    case sim::FaultKind::kSoftwareFault:
      raise_forced(event.app, state_.forced_fault, state_.stray_fault);
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
      ++state_.stats.journal_faults_injected;
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
  ++state_.stats.quorum_member_failures;
  if (!majority_lost) return;
  // The cohort can no longer acknowledge commits by majority: frames keep
  // committing on the source, but their durability boundary stops advancing
  // and a relocation could only warm-start from a minority member. Tell the
  // SCRAM, like lossy recovery does.
  ++state_.stats.quorum_losses;
  failstop::FailureSignal s;
  s.at = state_.clock.now();
  s.cycle = state_.clock.current_frame();
  s.kind = failstop::SignalKind::kQuorumLost;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " lost its live majority (" + std::to_string(group.live_count()) +
             "/" + std::to_string(group.member_count()) + " live)";
  state_.bank.raise(std::move(s));
}

void System::repair_quorum_member(ProcessorId p, std::uint32_t member) {
  storage::durable::quorum::QuorumGroup& group = quorum_group(p);
  require(member < group.member_count(), "quorum member id out of range");
  if (group.member_retired(member) || group.member_live(member)) return;
  const bool majority_restored = group.repair_member(member);
  ++state_.stats.quorum_member_repairs;
  if (!majority_restored) return;
  ++state_.stats.quorum_restores;
  failstop::FailureSignal s;
  s.at = state_.clock.now();
  s.cycle = state_.clock.current_frame();
  s.kind = failstop::SignalKind::kQuorumDurable;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " regained its live majority";
  state_.bank.raise(std::move(s));
}

bool System::execution_host(std::size_t pos, const Directive& directive,
                            ProcessorId& host) const {
  ensure(!state_.region_host.empty(), "app region host unset");
  ProcessorId candidate = state_.region_host[pos];
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
  const ProcessorId from = state_.region_host[pos];
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
      state_.region_host[pos] = to;
      ++state_.stats.region_relocations;
      ++state_.stats.warm_relocations;
      // No avoided-bytes credit when this member's warmth was bought by a
      // full-copy reseed since the last claim (the copy already paid).
      if (cohort.take_warm_credit(m)) {
        state_.stats.full_copy_bytes_avoided +=
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
    ++state_.stats.full_copy_relocations;
    state_.stats.full_copy_bytes +=
        storage::durable::encoded_state_bytes(source.poll_stable(), prefix);
  } else {
    // No replica cohort: every relocation moves the full encoded region.
    ++state_.stats.full_copy_relocations;
    state_.stats.full_copy_bytes += storage::durable::encoded_state_bytes(
        group_.processor(from).poll_stable(), prefix);
  }

  const std::size_t copied = StableRegion::relocate(
      group_.processor(from).poll_stable(), group_.processor(to).stable(),
      prefix);
  state_.region_host[pos] = to;
  ++state_.stats.region_relocations;
  log_debug("system", "cycle ", cycle, ": relocated region of app ",
            app.value(), " from processor ", from.value(), " to ",
            to.value(), " (", copied, " keys)");
}

void System::note_ship_round(
    ProcessorId source,
    const storage::durable::quorum::QuorumGroup::Round& round) {
  state_.stats.ship_bytes_total += round.bytes;
  if (round.reseeds == 0) return;
  // Every reseed of one round copied the same committed source store.
  state_.stats.ship_reseeds += round.reseeds;
  const storage::StableStorage& store = group_.processor(source).poll_stable();
  state_.stats.full_copy_bytes +=
      round.reseeds * storage::durable::encoded_state_bytes(store);
}

void System::pump_quorum_channels() {
  for (auto& [pid, cohort] : quorum_channels_) {
    state_.stats.ship_slots_polled += cohort.member_count();
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
  state_.stats.relocation_catchup_bytes += round.bytes;
  return {.bytes = round.bytes, .reseeded = round.reseeds > 0};
}

namespace {

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

/// The SCRAM's part of the system hash: every ScramState member, the
/// per-app tables in ascending AppId order.
std::uint64_t fold_scram(std::uint64_t h, const ScramState& s,
                         std::span<const AppSlot> order) {
  h = fnv_mix(h, s.current.value());
  h = fnv_mix(h, s.target.value());
  h = fnv_mix(h, static_cast<std::uint64_t>(s.phase));
  // The completion sets hash as (app, 1) pairs: the image of maps that
  // only ever held `true`.
  const auto fold_flags = [&h, order](const std::vector<bool>& flags) {
    for (const auto& [pos, id] : order) {
      if (!flags[pos]) continue;
      h = fnv_mix(h, id.value());
      h = fnv_mix(h, 1);
    }
  };
  fold_flags(s.done);
  if (!s.stage.empty()) {
    for (const auto& [pos, id] : order) {
      h = fnv_mix(h, id.value());
      h = fnv_mix(h, static_cast<std::uint64_t>(s.stage[pos]));
    }
  }
  fold_flags(s.halt_done);
  fold_flags(s.prepare_done);
  fold_flags(s.init_done);
  h = fnv_mix(h, s.pending_trigger ? 1 : 0);
  h = fnv_mix(h, s.lossy_pending ? 1 : 0);
  h = fnv_mix(h, s.active_start.has_value() ? *s.active_start + 1 : 0);
  h = fnv_mix(h, s.dwell_until);
  const ScramStats& st = s.stats;
  for (const std::uint64_t word :
       {st.triggers_received, st.reconfigs_started, st.reconfigs_completed,
        st.triggers_absorbed, st.retargets, st.buffered_triggers,
        st.dwell_blocked_frames, st.lossy_reinits, st.quorum_losses,
        st.quorum_restores}) {
    h = fnv_mix(h, word);
  }
  return h;
}

/// One kind of forced-fault flag: each set flag merged with the stray
/// raised ids, in ascending AppId order.
std::uint64_t fold_forced(std::uint64_t h, const std::vector<Forced>& flags,
                          const std::vector<AppId>& stray,
                          std::span<const AppSlot> order) {
  const auto fold = [&h](AppId app, bool raised) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, raised ? 1 : 0);
  };
  auto next_stray = stray.begin();
  for (const auto& [pos, id] : order) {
    for (; next_stray != stray.end() && *next_stray < id; ++next_stray) {
      fold(*next_stray, true);
    }
    if (flags[pos] != Forced::kUnset) fold(id, flags[pos] == Forced::kRaised);
  }
  for (; next_stray != stray.end(); ++next_stray) fold(*next_stray, true);
  return h;
}

/// The one system hash body (see SystemCheckpoint::digest()), over the two
/// state values and `order`, the spec's app order. The processors and apps
/// are objects on the live side and images in a checkpoint: each side
/// passes a loop that calls `visit(id, view)` per processor (ProcessorView)
/// in ascending id and per added app (AppView) in ascending AppId, so a
/// checkpoint and the running system hash alike.
template <class EachProcessor, class EachApp>
std::uint64_t hash_system(
    const SystemState& s, const ScramState& scram,
    std::span<const AppSlot> order, EachProcessor each_processor,
    EachApp each_app,
    const std::map<ProcessorId, storage::durable::quorum::QuorumGroup>&
        cohorts) {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, s.clock.current_frame());
  h = fnv_mix(h, static_cast<std::uint64_t>(s.clock.now()));

  each_processor([&h](ProcessorId pid, const failstop::ProcessorView& p) {
    h = fnv_mix(h, pid.value());
    h = fold_processor(h, p);
  });

  for (const auto& [factor, value] : s.environment.state()) {
    h = fnv_mix(h, factor.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(value));
  }
  h = fnv_mix(h, s.environment.change_count());

  h = fnv_mix(h, s.bank.pending());
  h = fnv_mix(h, s.bank.total_raised());
  h = fnv_mix(h, s.health.overrun_count());
  h = fnv_mix(h, s.health.fault_count());
  h = fnv_mix(h, s.health.events().size());

  h = fold_scram(h, scram, order);

  each_app([&h](AppId id, const AppView& a) {
    h = fnv_mix(h, id.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(a.state));
    h = fnv_mix(h, a.spec.has_value() ? a.spec->value() + 1 : 0);
    h = fnv_mix(h, (a.post_ok ? 4u : 0u) | (a.trans_ok ? 2u : 0u) |
                       (a.pre_ok ? 1u : 0u));
    h = fnv_mix(h, a.domain.size());
    for (const std::uint64_t word : a.domain) h = fnv_mix(h, word);
  });

  // Nothing before the first frame places the regions.
  if (!s.region_host.empty()) {
    for (const auto& [pos, id] : order) {
      h = fnv_mix(h, id.value());
      h = fnv_mix(h, s.region_host[pos].value());
    }
  }

  h = fnv_mix(h, s.fault_plan.size());
  h = fnv_mix(h, s.fault_plan.consumed());
  h = fold_forced(h, s.forced_overrun, s.stray_overrun, order);
  h = fold_forced(h, s.forced_fault, s.stray_fault, order);

  const MessagingStats& mail = s.router.stats();
  h = fnv_mix(h, mail.sent);
  h = fnv_mix(h, mail.delivered);
  h = fnv_mix(h, mail.dropped_dead_host);
  h = fnv_mix(h, mail.dropped_unknown);

  h = fnv_mix(h, s.deadline_alarm_raised ? 1 : 0);
  h = fnv_mix(h, s.noise_rng.state());
  h = fnv_mix(h, s.trace.size() + 1);

  for (const auto& [pid, group] : cohorts) {
    h = fnv_mix(h, pid.value());
    h = fold_cohort(h, group);
  }

  const SystemStats& st = s.stats;
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

  h = fnv_mix(h, s.started ? 1 : 0);
  return h;
}

}  // namespace

std::uint64_t SystemCheckpoint::digest() const {
  return hash_system(
      state, scram, app_order,
      [this](auto visit) {
        for (const auto& [pid, p] : processors) visit(pid, p.view());
      },
      [this](auto visit) {
        for (const auto& [pos, id] : app_order) {
          if (apps[pos].has_value()) visit(id, apps[pos]->view());
        }
      },
      quorum_channels);
}

std::uint64_t System::digest() const {
  // The apps' domain words go through one buffer per thread: reused, so a
  // warm digest allocates nothing, and never shared between threads.
  thread_local std::vector<std::uint64_t> domain;
  return hash_system(
      state_, scram_.state(), spec_.apps_by_id(),
      [this](auto visit) {
        group_.for_each_by_id([&visit](const failstop::Processor& p) {
          visit(p.id(), p.view());
        });
      },
      [this](auto visit) {
        // Apps not added yet are skipped, as a checkpoint holds none.
        for (const auto& [pos, id] : spec_.apps_by_id()) {
          if (apps_[pos] != nullptr) visit(id, apps_[pos]->view(domain));
        }
      },
      quorum_channels_);
}

SystemCheckpoint System::checkpoint() const {
  SystemCheckpoint cp;
  checkpoint_into(cp);
  return cp;
}

void System::checkpoint_into(SystemCheckpoint& cp) const {
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
  cp.state = state_;
  cp.scram = scram_.state();
  cp.apps.resize(apps_.size());
  for (std::size_t pos = 0; pos < apps_.size(); ++pos) {
    if (apps_[pos] == nullptr) {
      cp.apps[pos].reset();
      continue;
    }
    if (!cp.apps[pos].has_value()) cp.apps[pos].emplace();
    apps_[pos]->checkpoint_into(*cp.apps[pos]);
  }
  cp.app_order = spec_.apps_by_id();
}

void System::restore(const SystemCheckpoint& cp) {
  // Every shape check runs before the first write.
  require(cp.app_order == spec_.apps_by_id(),
          "checkpoint app order does not match this system");
  bool same_processors = cp.processors.size() == group_.size();
  for (const auto& [pid, spare] : cp.processors) {
    same_processors = same_processors && group_.has_processor(pid);
  }
  require(same_processors,
          "checkpoint processor set does not match this system");
  bool same_cohorts = cp.quorum_channels.size() == quorum_channels_.size();
  for (const auto& [pid, spare] : cp.quorum_channels) {
    same_cohorts = same_cohorts && quorum_channels_.contains(pid);
  }
  require(same_cohorts,
          "checkpoint quorum-cohort set does not match this system");
  require(cp.state.monitors.size() == state_.monitors.size(),
          "checkpoint monitor set does not match this system");
  bool same_apps = cp.apps.size() == apps_.size();
  for (std::size_t pos = 0; same_apps && pos < apps_.size(); ++pos) {
    same_apps = cp.apps[pos].has_value() == (apps_[pos] != nullptr);
  }
  require(same_apps,
          "checkpoint application set does not match this system");

  scram_.restore_state(cp.scram);
  state_ = cp.state;
  for (const auto& [pid, spare] : cp.processors) {
    group_.processor(pid).restore_state(spare);
  }
  for (const auto& [pid, spare] : cp.quorum_channels) {
    quorum_channels_.at(pid).restore_state(spare);
  }
  for (std::size_t pos = 0; pos < apps_.size(); ++pos) {
    if (apps_[pos] != nullptr) apps_[pos]->restore_state(*cp.apps[pos]);
  }
  refresh_mailboxes();
}

void System::publish_processor_factors(SimTime now) {
  for (const auto& [processor, factor] : processor_factors_) {
    const std::int64_t value = group_.processor(processor).running() ? 0 : 1;
    state_.environment.set(factor, value, now);
  }
}

void System::run_frame() {
  const Cycle cycle = state_.clock.current_frame();
  const SimTime t0 = state_.clock.now();
  const std::vector<AppDecl>& decls = spec_.apps();

  if (!state_.started) {
    require(apps_added_ == decls.size(),
            "every declared application must be added before running");
    const Configuration& initial = spec_.config(spec_.initial_config());
    state_.region_host.resize(decls.size());
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
      state_.region_host[i] = host.value_or(scram_proc_);
    }
    group_.watch_all(state_.activity);
    for (const AppDecl& decl : decls) {
      state_.router.endpoint(decl.id);
    }
    refresh_mailboxes();
    if (options_.record_storage_history) {
      for (const ProcessorId p : group_.processor_ids()) {
        if (group_.processor(p).running()) {
          group_.processor(p).stable().enable_history(true);
        }
      }
    }
    state_.started = true;
  }

  // 1. Physical/environment models.
  for (const EnvHook& hook : env_hooks_) hook(state_.environment, cycle, t0);

  // 2. Scheduled fault injection. The span views the fault plan's own
  // events; applying an event never touches the plan.
  for (const sim::FaultEvent& event : state_.fault_plan.consume_until(t0)) {
    apply_fault_event(event, cycle, t0);
  }
  publish_processor_factors(t0);

  // 3. Heartbeats and processor-failure detection. The noise model may
  // suppress a running processor's heartbeat; the detection threshold is
  // what filters such glitches from real fail-stops.
  if (options_.heartbeat_loss_prob <= 0.0) {
    group_.heartbeat_all(state_.activity);
  } else {
    for (const ProcessorId id : group_.processor_ids()) {
      if (!group_.processor(id).running()) continue;
      if (state_.noise_rng.chance(options_.heartbeat_loss_prob)) {
        ++state_.stats.heartbeats_lost;
        continue;
      }
      state_.activity.heartbeat(id);
    }
  }
  state_.activity.end_of_frame(cycle, t0, state_.bank);

  // 4. Virtual monitor applications sample the environment.
  env_signals_.clear();
  for (env::FactorMonitor& monitor : state_.monitors) {
    if (const auto s = monitor.sample(state_.environment, cycle, t0)) {
      env_signals_.push_back(*s);
    }
  }

  // 4b. Frame-boundary message delivery (messages sent during the previous
  // frame arrive now; receivers on fail-stopped hosts lose theirs).
  state_.router.exchange(cycle, [this](AppId app) {
    return group_.processor(state_.region_host[*spec_.app_index(app)])
        .running();
  });

  // 4c. Runtime SP3 watchdog: an in-progress reconfiguration that has
  // already consumed its whole T bound is a deadline violation — raised
  // once as a timing signal so the SCRAM (and the operator) see it.
  if (scram_.reconfiguring() && !state_.deadline_alarm_raised) {
    const std::optional<Cycle> started = scram_.active_start_cycle();
    const std::optional<ConfigId> target = scram_.target_config();
    if (started.has_value() && target.has_value()) {
      const std::optional<Cycle> bound =
          spec_.transition_bound(scram_.current_config(), *target);
      if (bound.has_value() && cycle - *started + 1 > *bound) {
        state_.deadline_alarm_raised = true;
        ++state_.stats.deadline_violations;
        log_warn("system", "cycle ", cycle,
                 ": reconfiguration exceeded its T bound (", *bound,
                 " frames)");
        failstop::TimingMonitor().report_overrun(
            AppId{}, cycle, t0, state_.bank,
            "reconfiguration deadline exceeded");
      }
    }
  }

  // 5. The SCRAM consumes this frame's signals. Classify processor-failure
  // signals against ground truth for detector-quality accounting.
  state_.bank.drain_into(hw_signals_);
  for (const failstop::FailureSignal& s : hw_signals_) {
    if (s.kind != failstop::SignalKind::kProcessorFailure) continue;
    if (group_.processor(s.processor).running()) {
      ++state_.stats.false_alarms;
    } else {
      ++state_.stats.true_detections;
    }
  }
  const FramePlan& plan = scram_.begin_frame(
      cycle, t0, hw_signals_, env_signals_, state_.environment.state());
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
    if (std::exchange(state_.forced_fault[i], Forced::kClear) ==
        Forced::kRaised) {
      result.ok = false;
      result.fault_detail = "injected software fault";
    }

    // Budget enforcement applies to normal AFTA frames.
    if (directive.kind == DirectiveKind::kNone &&
        application.reconf_state() == trace::ReconfState::kNormal &&
        application.current_spec().has_value()) {
      const FunctionalSpec& fs = spec_of_app(i, *application.current_spec());
      SimDuration consumed = result.consumed;
      if (std::exchange(state_.forced_overrun[i], Forced::kClear) ==
          Forced::kRaised) {
        consumed = fs.budget_us + 100;
      }
      if (consumed > fs.budget_us) {
        state_.health.report_overrun(PartitionId{id.value()}, id, cycle, t0,
                               consumed, fs.budget_us, state_.bank);
      }
    }
    if (!result.ok) {
      state_.health.report_app_fault(PartitionId{id.value()}, id, cycle, t0,
                               result.fault_detail, state_.bank);
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
    state_.deadline_alarm_raised = false;
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

  ++state_.stats.frames_run;
  state_.clock.advance_frame();
}

void System::record_snapshot(Cycle cycle, SimTime frame_end) {
  // The rows are written in place into the trace's flat row array, in
  // ascending AppId order.
  const std::span<trace::AppRow> rows = state_.trace.append_frame(
      cycle, frame_end, scram_.current_config(), state_.environment.state(),
      apps_.size());
  std::size_t r = 0;
  for (const auto& [pos, id] : spec_.apps_by_id()) {
    const ReconfigurableApp& application = *apps_[pos];
    trace::AppRow& row = rows[r++];
    row.first = id;
    trace::AppSnapshot& snap = row.second;
    snap.reconf_st = application.reconf_state();
    snap.spec = application.current_spec();
    snap.host_running = group_.processor(state_.region_host[pos]).running();
    snap.postcondition_ok = application.postcondition_ok();
    snap.transition_ok = application.transition_ok();
    snap.precondition_ok = application.precondition_ok();
  }
}

}  // namespace arfs::core
