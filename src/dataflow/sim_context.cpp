#include "dataflow/sim_context.hpp"

#include <algorithm>
#include <sstream>

namespace dfc::df {

std::uint64_t Process::now() const {
  DFC_ASSERT(ctx_ != nullptr, "Process::now before registration: " + name());
  return ctx_->cycle();
}

void SimContext::prepare_schedule() {
  for (auto& f : fifos_) f->watchers_.clear();
  for (auto& p : processes_) {
    const auto connected = p->connected_fifos();
    p->sched_skippable_ = !connected.empty();
    p->sched_event_ = true;  // never skip a process before its first run
    p->sched_wake_valid_ = false;
    p->sched_wake_ = 0;
    for (FifoBase* f : connected) {
      if (f != nullptr) f->watchers_.push_back(p.get());
    }
  }
  schedule_prepared_ = true;
}

void SimContext::step() {
  if (!schedule_prepared_) prepare_schedule();
  if (cycle_hook_ != nullptr) cycle_hook_->on_cycle_start(cycle_);
  if (observing()) {
    step_observed();
  } else if (cycle_hook_ != nullptr) {
    // Hook mutations (jams, dropped flits) invalidate cached wake hints and
    // would trip paranoid's no-op proofs, so fall back to the naive loop.
    step_naive();
  } else if (paranoid_) {
    step_checked();
  } else if (activity_aware_) {
    step_active();
  } else {
    step_naive();
  }
}

void SimContext::finish_cycle(bool any_activity) {
  dirty_fifos_.clear();
  idle_cycles_ = any_activity ? 0 : idle_cycles_ + 1;
  ++cycle_;
}

void SimContext::step_naive() {
  for (auto& p : processes_) {
    // Keep every event flag raised so a later switch to activity-aware mode
    // starts from a conservatively correct state.
    p->sched_event_ = true;
    p->on_clock();
  }
  bool any_activity = false;
  for (auto& f : fifos_) {
    any_activity |= f->commit();
    f->pending_commit_ = false;
  }
  finish_cycle(any_activity);
}

void SimContext::step_observed() {
  // Naive semantics (every process runs, every FIFO commits) so the
  // obs_enabled_-gated per-cycle bookkeeping inside on_clock() — empty-stall
  // noting, activity classification — sees each cycle exactly once. The
  // conservative event flags set by step_naive keep a later switch back to
  // the activity-aware scheduler sound.
  step_naive();
  ++observed_cycles_;
}

void SimContext::step_active() {
  for (auto& p : processes_) {
    Process& pr = *p;
    // Skip iff the process opted in, none of its FIFOs moved data since its
    // last run, and its wake has not arrived. The wake is computed lazily on
    // the first event-free cycle: with no event, neither the process (it
    // last ran as a no-op) nor any neighbour has touched the state
    // wake_cycle() derives from — its own members, can_pop()/front() of
    // FIFOs it alone consumes, and start-of-cycle-stable can_push() — so
    // evaluating it now equals evaluating it right after the last run, and
    // the cache stays fresh until the process runs again.
    if (pr.sched_skippable_ && !pr.sched_event_) {
      if (!pr.sched_wake_valid_) {
        pr.sched_wake_ = pr.wake_cycle();
        pr.sched_wake_valid_ = true;
      }
      if (pr.sched_wake_ > cycle_) continue;
    }
    pr.sched_event_ = false;
    pr.sched_wake_valid_ = false;
    pr.on_clock();
  }
  // Only FIFOs that saw a push or pop need a commit; an idle commit is an
  // idempotent no-op returning false. Every real commit wakes the processes
  // watching that FIFO.
  bool any_activity = false;
  for (FifoBase* f : dirty_fifos_) {
    if (f->commit()) {
      any_activity = true;
      for (Process* w : f->watchers_) w->sched_event_ = true;
    }
    f->pending_commit_ = false;
  }
  finish_cycle(any_activity);
}

std::uint64_t SimContext::total_fifo_side_effects() const {
  std::uint64_t total = 0;
  for (const auto& f : fifos_) {
    const FifoStats& s = f->lifetime_stats();
    total += s.pushes + s.pops + s.full_stall_cycles + s.empty_stall_cycles;
  }
  return total;
}

void SimContext::step_checked() {
  for (auto& p : processes_) {
    Process& pr = *p;
    // Mirror step_active's lazy wake evaluation exactly.
    bool would_skip = false;
    if (pr.sched_skippable_ && !pr.sched_event_) {
      if (!pr.sched_wake_valid_) {
        pr.sched_wake_ = pr.wake_cycle();
        pr.sched_wake_valid_ = true;
      }
      would_skip = pr.sched_wake_ > cycle_;
    }
    if (would_skip) {
      // Run the process anyway (naive semantics) and prove the skip would
      // have been sound: no FIFO side effect, wake hint unchanged.
      const std::uint64_t effects_before = total_fifo_side_effects();
      const std::uint64_t wake_before = pr.wake_cycle();
      pr.on_clock();
      DFC_CHECK(total_fifo_side_effects() == effects_before,
                "paranoid: process '" + pr.name() +
                    "' performed a FIFO operation at cycle " + std::to_string(cycle_) +
                    ", which the activity-aware scheduler would have skipped");
      DFC_CHECK(pr.wake_cycle() == wake_before,
                "paranoid: wake_cycle() of '" + pr.name() + "' changed at cycle " +
                    std::to_string(cycle_) + " during a skippable no-op run");
    } else {
      pr.sched_event_ = false;
      pr.sched_wake_valid_ = false;
      pr.on_clock();
    }
  }
  bool any_activity = false;
  for (auto& f : fifos_) {
    const bool was_dirty = f->pending_commit_;
    const bool active = f->commit();
    DFC_CHECK(active == was_dirty, "paranoid: FIFO '" + f->name() +
                                       "' commit activity does not match dirty tracking at cycle " +
                                       std::to_string(cycle_));
    if (active) {
      any_activity = true;
      for (Process* w : f->watchers_) w->sched_event_ = true;
    }
    f->pending_commit_ = false;
  }
  finish_cycle(any_activity);
}

std::uint64_t SimContext::fast_forward_candidate() {
  // Only valid straight after an idle cycle: any FIFO activity means some
  // process may act next cycle. While observing, every cycle must be stepped
  // (and classified) explicitly, so jumping is off the table.
  if (idle_cycles_ == 0 || !schedule_prepared_ || !activity_aware_ || paranoid_ || observing() ||
      cycle_hook_ != nullptr) {
    return 0;
  }
  std::uint64_t wake = Process::kNeverWake;
  for (const auto& p : processes_) {
    // An always-awake or freshly-evented process may act at any cycle. A
    // process that ran during the idle cycle has no cached wake yet; the
    // start-of-cycle state is stable here, so compute it now.
    if (!p->sched_skippable_ || p->sched_event_) return 0;
    if (!p->sched_wake_valid_) {
      p->sched_wake_ = p->wake_cycle();
      p->sched_wake_valid_ = true;
    }
    wake = std::min(wake, p->sched_wake_);
  }
  if (wake <= cycle_) return 0;
  return wake;
}

std::uint64_t SimContext::fast_forward(std::uint64_t limit_cycle) {
  const std::uint64_t wake = fast_forward_candidate();
  const std::uint64_t target = std::min(wake, limit_cycle);
  if (wake == 0 || target <= cycle_) return 0;
  const std::uint64_t jumped = target - cycle_;
  cycle_ = target;
  idle_cycles_ += jumped;
  return jumped;
}

std::uint64_t SimContext::run_until(const std::function<bool()>& finished,
                                    std::uint64_t max_cycles) {
  return run_lockstep({this}, finished, max_cycles, idle_limit_, [this] { return fifo_report(); });
}

std::uint64_t run_lockstep(const std::vector<SimContext*>& contexts,
                           const std::function<bool()>& finished, std::uint64_t max_cycles,
                           std::uint64_t idle_limit, const std::function<std::string()>& report,
                           const std::function<void(std::uint64_t)>& observe) {
  const SimContext& clock = *contexts.front();
  const std::uint64_t start = clock.cycle();
  const std::uint64_t budget_end =
      max_cycles > Process::kNeverWake - start ? Process::kNeverWake : start + max_cycles;
  std::uint64_t idle = 0;  // consecutive cycles idle on every context
  while (!finished()) {
    const std::uint64_t now = clock.cycle();
    if (now >= budget_end) {
      throw TimeoutError("run exceeded " + std::to_string(max_cycles) + " cycles\n" + report());
    }
    if (observe) observe(now);
    bool active = false;
    for (SimContext* ctx : contexts) {
      ctx->step();
      active = active || ctx->idle_cycles() == 0;
    }
    idle = active ? 0 : idle + 1;
    if (!active && !observe) {
      // Jump only when every context can, and no further than the first
      // wake any declares, the budget, or the watchdog's firing cycle.
      const std::uint64_t here = clock.cycle();
      const std::uint64_t idle_left = idle_limit >= idle ? idle_limit - idle + 1 : 0;
      std::uint64_t target = here + std::min(budget_end - here, idle_left);
      for (SimContext* ctx : contexts) {
        const std::uint64_t wake = ctx->fast_forward_candidate();
        if (wake == 0) {
          target = here;
          break;
        }
        target = std::min(target, wake);
      }
      if (target > here) {
        for (SimContext* ctx : contexts) ctx->fast_forward(target);
        idle += target - here;
      }
    }
    if (idle > idle_limit) {
      throw DeadlockError("deadlock: no FIFO activity for " + std::to_string(idle) +
                          " cycles at cycle " + std::to_string(clock.cycle()) + "\n" + report());
    }
  }
  return clock.cycle() - start;
}

void SimContext::reset() {
  for (auto& f : fifos_) {
    f->reset();
    f->pending_commit_ = false;
    f->set_fault_jammed(false);  // jams are fault state, not design state
  }
  dirty_fifos_.clear();
  for (auto& p : processes_) {
    p->reset();
    p->sched_event_ = true;
    p->sched_wake_valid_ = false;
    p->sched_wake_ = 0;
  }
  cycle_ = 0;
  idle_cycles_ = 0;
  observed_cycles_ = 0;
}

void SimContext::reset_fifo_stats() {
  for (auto& f : fifos_) f->reset_stats();
}

void SimContext::obs_register(FifoBase& f) {
  f.obs_id_ = trace_->register_entity(f.name(), obs::EntityKind::kFifo, f.capacity());
  f.obs_trace_ = trace_;
  f.obs_cycle_ = &cycle_;
}

void SimContext::obs_register(Process& p) {
  p.obs_id_ = trace_->register_entity(p.name(), obs::EntityKind::kProcess);
  p.obs_trace_ = trace_;
}

void SimContext::sync_obs_flags() {
  const bool on = observing();
  for (auto& p : processes_) p->obs_enabled_ = on;
}

void SimContext::attach_trace(obs::TraceSink* sink) {
  if (sink == trace_) return;
  if (sink != nullptr) {
    DFC_REQUIRE(trace_ == nullptr, "attach_trace: a sink is already attached");
    DFC_REQUIRE(sink->entities().empty(),
                "attach_trace requires a fresh TraceSink (entity ids must match this context)");
    trace_ = sink;
    // Registration order (FIFOs first, then processes, each in registration
    // order) is deterministic, which keeps entity ids — and therefore the
    // exported trace bytes — identical across runs.
    for (auto& f : fifos_) obs_register(*f);
    for (auto& p : processes_) obs_register(*p);
  } else {
    trace_ = nullptr;
    for (auto& f : fifos_) {
      f->obs_trace_ = nullptr;
      f->obs_cycle_ = nullptr;
    }
    for (auto& p : processes_) p->obs_trace_ = nullptr;
  }
  sync_obs_flags();
}

void SimContext::set_stall_accounting(bool on) {
  stall_accounting_ = on;
  sync_obs_flags();
}

void SimContext::attach_cycle_hook(CycleHook* hook) {
  if (hook != nullptr) {
    DFC_REQUIRE(cycle_hook_ == nullptr, "attach_cycle_hook: a hook is already attached");
  }
  cycle_hook_ = hook;
}

FifoBase* SimContext::find_fifo(const std::string& name) {
  for (auto& f : fifos_) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

void SimContext::enable_integrity_guards(FaultListener* listener, float range_bound) {
  for (auto& f : fifos_) f->enable_integrity_guard(listener, range_bound);
  integrity_guards_ = true;
}

void SimContext::disable_integrity_guards() {
  for (auto& f : fifos_) f->disable_integrity_guard();
  integrity_guards_ = false;
}

std::string SimContext::fifo_report() const {
  std::ostringstream os;
  os << "FIFO occupancy (" << fifos_.size() << " channels):\n";
  for (const auto& f : fifos_) {
    os << "  " << f->name() << ": " << f->size() << "/" << f->capacity()
       << " (pushes=" << f->lifetime_stats().pushes << " pops=" << f->lifetime_stats().pops
       << " max=" << f->lifetime_stats().max_occupancy
       << " full_stalls=" << f->lifetime_stats().full_stall_cycles
       << " empty_stalls=" << f->lifetime_stats().empty_stall_cycles << ")\n";
  }
  return os.str();
}

}  // namespace dfc::df
