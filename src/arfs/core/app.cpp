#include "arfs/core/app.hpp"

#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::core {

ReconfigurableApp::ReconfigurableApp(AppId id, std::string name)
    : id_(id), name_(std::move(name)) {}

void ReconfigurableApp::mark_interrupted() {
  state_ = trace::ReconfState::kInterrupted;
  post_ok_ = false;
  trans_ok_ = false;
  pre_ok_ = false;
}

void ReconfigurableApp::on_host_failure() { on_volatile_lost(); }

void ReconfigurableApp::start(std::optional<SpecId> new_spec) {
  spec_ = new_spec;
  state_ = trace::ReconfState::kNormal;
}

void ReconfigurableApp::rewind_to_halted() {
  if (state_ == trace::ReconfState::kPrepared ||
      state_ == trace::ReconfState::kAwaitingStart) {
    state_ = trace::ReconfState::kHalted;
    trans_ok_ = false;
    pre_ok_ = false;
  }
}

ReconfigurableApp::StepResult ReconfigurableApp::frame_step(
    const Ctx& ctx, const Directive& directive) {
  using trace::ReconfState;
  StepResult result;

  switch (directive.kind) {
    case DirectiveKind::kNone: {
      if (state_ != ReconfState::kNormal) {
        // Mid-reconfiguration hold (dependency wait): nothing to execute.
        result.phase_done = true;  // the held phase remains complete
        return result;
      }
      if (!spec_.has_value()) return result;  // application is off
      if (ctx.own == nullptr) {
        // Host fail-stopped: the application cannot run its AFTA. The
        // failure itself is reported by the activity monitor, not here.
        return result;
      }
      return do_work(ctx);
    }

    case DirectiveKind::kHalt: {
      state_ = ReconfState::kInterrupted;  // executing the halt stage
      bool done = true;
      if (ctx.own != nullptr) {
        done = do_halt(ctx);
      }
      // With no live host the application has already ceased operation; its
      // postcondition ("cease operation" at minimum) holds trivially
      // (paper section 7.1).
      if (done) {
        state_ = ReconfState::kHalted;
        post_ok_ = true;
        result.phase_done = true;
      }
      return result;
    }

    case DirectiveKind::kPrepare: {
      require(state_ == ReconfState::kHalted ||
                  state_ == ReconfState::kInterrupted,
              "prepare directive before halt completed");
      bool done = true;
      if (ctx.own != nullptr) {
        done = do_prepare(ctx, directive.target_spec);
      }
      if (done) {
        state_ = ReconfState::kPrepared;
        trans_ok_ = true;
        result.phase_done = true;
      }
      return result;
    }

    case DirectiveKind::kInitialize: {
      require(state_ == ReconfState::kPrepared,
              "initialize directive before prepare completed");
      bool done = true;
      if (ctx.own != nullptr) {
        done = do_initialize(ctx, directive.target_spec);
      } else if (directive.target_spec.has_value()) {
        // An application that must run in the target configuration cannot
        // initialize without a host; signal the problem to the SCRAM.
        result.ok = false;
        result.fault_detail = "initialize with no running host";
        return result;
      }
      if (done) {
        state_ = ReconfState::kAwaitingStart;
        pre_ok_ = true;
        result.phase_done = true;
      }
      return result;
    }
  }
  return result;
}

void ReconfigurableApp::checkpoint_into(Checkpoint& cp) const {
  cp.state = state_;
  cp.spec = spec_;
  cp.post_ok = post_ok_;
  cp.trans_ok = trans_ok_;
  cp.pre_ok = pre_ok_;
  cp.domain.clear();
  save_domain(cp.domain);
}

AppView ReconfigurableApp::view(std::vector<std::uint64_t>& domain) const {
  domain.clear();
  save_domain(domain);
  return {state_, spec_, post_ok_, trans_ok_, pre_ok_, domain};
}

AppView ReconfigurableApp::Checkpoint::view() const {
  return {state, spec, post_ok, trans_ok, pre_ok, domain};
}

void ReconfigurableApp::restore_state(const Checkpoint& cp) {
  state_ = cp.state;
  spec_ = cp.spec;
  post_ok_ = cp.post_ok;
  trans_ok_ = cp.trans_ok;
  pre_ok_ = cp.pre_ok;
  load_domain(cp.domain);
}

}  // namespace arfs::core
