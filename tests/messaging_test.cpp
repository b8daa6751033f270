// Tests of inter-application message passing (paper section 3) and of the
// runtime SP3 deadline watchdog.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "arfs/core/messaging.hpp"
#include "arfs/core/system.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/reconfigs.hpp"

namespace arfs::core {
namespace {

using support::kChainSeverityFactor;
using support::synthetic_app;
using support::synthetic_processor;

TEST(MessageRouter, DeliversAtNextExchange) {
  MessageRouter router;
  Mailbox& a = router.endpoint(AppId{1});
  Mailbox& b = router.endpoint(AppId{2});

  a.send(AppId{2}, "cmd", std::int64_t{7});
  EXPECT_TRUE(b.inbox().empty());  // not yet delivered
  router.exchange(1, [](AppId) { return true; });
  ASSERT_EQ(b.inbox().size(), 1u);
  EXPECT_EQ(b.inbox()[0].from, AppId{1});
  EXPECT_EQ(b.inbox()[0].topic, "cmd");
  EXPECT_EQ(std::get<std::int64_t>(b.inbox()[0].payload), 7);
  EXPECT_EQ(b.inbox()[0].sent_cycle, 0u);

  // The inbox is per-frame: the next exchange clears it.
  router.exchange(2, [](AppId) { return true; });
  EXPECT_TRUE(b.inbox().empty());
  EXPECT_EQ(router.stats().sent, 1u);
  EXPECT_EQ(router.stats().delivered, 1u);
}

TEST(MessageRouter, LatestFindsNewestOnTopic) {
  MessageRouter router;
  Mailbox& a = router.endpoint(AppId{1});
  Mailbox& b = router.endpoint(AppId{2});
  a.send(AppId{2}, "x", std::int64_t{1});
  a.send(AppId{2}, "x", std::int64_t{2});
  a.send(AppId{2}, "y", std::int64_t{3});
  router.exchange(1, [](AppId) { return true; });
  ASSERT_NE(b.latest("x"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(b.latest("x")->payload), 2);
  EXPECT_EQ(b.latest("z"), nullptr);
}

TEST(MessageRouter, DropsForDeadReceiversAndUnknownApps) {
  MessageRouter router;
  Mailbox& a = router.endpoint(AppId{1});
  router.endpoint(AppId{2});
  a.send(AppId{2}, "t", std::int64_t{1});
  a.send(AppId{9}, "t", std::int64_t{1});  // never registered
  router.exchange(1, [](AppId app) { return app != AppId{2}; });
  EXPECT_EQ(router.stats().dropped_dead_host, 1u);
  EXPECT_EQ(router.stats().dropped_unknown, 1u);
  EXPECT_EQ(router.stats().delivered, 0u);
}

TEST(MessageRouter, DeliversAfterIdleFrames) {
  MessageRouter router;
  Mailbox& a = router.endpoint(AppId{1});
  Mailbox& b = router.endpoint(AppId{2});
  const auto alive = [](AppId) { return true; };
  for (Cycle c = 1; c <= 3; ++c) router.exchange(c, alive);
  a.send(AppId{2}, "cmd", std::int64_t{7});
  router.exchange(4, alive);
  ASSERT_EQ(b.inbox().size(), 1u);
  EXPECT_EQ(b.inbox()[0].sent_cycle, 3u);

  // The next idle exchange empties the inbox; later idle ones keep it so.
  router.exchange(5, alive);
  EXPECT_TRUE(b.inbox().empty());
  router.exchange(6, alive);
  EXPECT_TRUE(b.inbox().empty());

  // Mail both ways after the idle frames, in send order per sender.
  b.send(AppId{1}, "ack", std::int64_t{1});
  a.send(AppId{2}, "cmd", std::int64_t{8});
  a.send(AppId{2}, "cmd", std::int64_t{9});
  router.exchange(7, alive);
  ASSERT_EQ(a.inbox().size(), 1u);
  ASSERT_EQ(b.inbox().size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(b.inbox()[0].payload), 8);
  EXPECT_EQ(std::get<std::int64_t>(b.inbox()[1].payload), 9);
  EXPECT_EQ(router.stats().sent, 4u);
  EXPECT_EQ(router.stats().delivered, 4u);
}

TEST(MessageRouter, CopiesAndMovesCarryTheirOwnMail) {
  const auto alive = [](AppId) { return true; };
  MessageRouter router;
  Mailbox& a = router.endpoint(AppId{1});
  router.endpoint(AppId{2});
  a.send(AppId{2}, "cmd", std::int64_t{7});

  // A copy taken with mail outgoing delivers it, and so does the original.
  MessageRouter copy = router;
  copy.exchange(1, alive);
  EXPECT_EQ(copy.endpoint(AppId{2}).inbox().size(), 1u);
  router.exchange(1, alive);
  EXPECT_EQ(router.endpoint(AppId{2}).inbox().size(), 1u);

  // A send on the copy's mailbox is the copy's alone.
  copy.endpoint(AppId{1}).send(AppId{2}, "cmd", std::int64_t{8});
  router.exchange(2, alive);
  EXPECT_TRUE(router.endpoint(AppId{2}).inbox().empty());
  EXPECT_EQ(router.stats().sent, 1u);

  // An assigned router keeps the copy's mail outgoing and delivers it.
  MessageRouter assigned;
  assigned = copy;
  assigned.exchange(2, alive);
  ASSERT_EQ(assigned.endpoint(AppId{2}).inbox().size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(
                assigned.endpoint(AppId{2}).inbox()[0].payload),
            8);

  // A move keeps each mailbox: one held across a move, made with no mail
  // in flight, sends into the router it moved to.
  Mailbox& held = assigned.endpoint(AppId{1});
  MessageRouter moved = std::move(assigned);
  held.send(AppId{2}, "cmd", std::int64_t{9});
  moved.exchange(3, alive);
  EXPECT_EQ(moved.endpoint(AppId{2}).inbox().size(), 1u);
  MessageRouter target;
  target = std::move(moved);
  held.send(AppId{2}, "cmd", std::int64_t{10});
  target.exchange(4, alive);
  EXPECT_EQ(target.endpoint(AppId{2}).inbox().size(), 1u);
  EXPECT_EQ(target.stats().delivered, 4u);
  EXPECT_EQ(copy.stats().delivered, 1u);
}

/// Application pair: the producer sends its work counter each frame; the
/// consumer records the last value it received.
class ProducerApp final : public ReconfigurableApp {
 public:
  ProducerApp() : ReconfigurableApp(synthetic_app(0), "producer") {}

 protected:
  StepResult do_work(const Ctx& ctx) override {
    ++count_;
    if (ctx.mail != nullptr) {
      ctx.mail->send(synthetic_app(1), "count", count_);
    }
    return {};
  }
  bool do_halt(const Ctx&) override { return true; }
  bool do_prepare(const Ctx&, std::optional<SpecId>) override { return true; }
  bool do_initialize(const Ctx&, std::optional<SpecId>) override {
    return true;
  }

 private:
  std::int64_t count_ = 0;
};

class ConsumerApp final : public ReconfigurableApp {
 public:
  ConsumerApp() : ReconfigurableApp(synthetic_app(1), "consumer") {}
  [[nodiscard]] std::int64_t last_seen() const { return last_seen_; }

 protected:
  StepResult do_work(const Ctx& ctx) override {
    if (ctx.mail != nullptr) {
      if (const AppMessage* m = ctx.mail->latest("count")) {
        last_seen_ = std::get<std::int64_t>(m->payload);
      }
    }
    return {};
  }
  bool do_halt(const Ctx&) override { return true; }
  bool do_prepare(const Ctx&, std::optional<SpecId>) override { return true; }
  bool do_initialize(const Ctx&, std::optional<SpecId>) override {
    return true;
  }

 private:
  std::int64_t last_seen_ = 0;
};

TEST(SystemMessaging, OneFrameDeliveryLatency) {
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<ProducerApp>());
  auto consumer = std::make_unique<ConsumerApp>();
  ConsumerApp* consumer_ptr = consumer.get();
  system.add_app(std::move(consumer));

  system.run(5);
  // Frame 4's consumer sees the value the producer sent in frame 3 (= 4).
  EXPECT_EQ(consumer_ptr->last_seen(), 4);
  // Stats are counted at the frame-boundary exchange: frame 4's send is
  // still in flight, so four messages have crossed a boundary.
  EXPECT_EQ(system.messaging().sent, 4u);
  EXPECT_EQ(system.messaging().delivered, 4u);
}

TEST(SystemMessaging, MailOutgoingAtACheckpointIsDeliveredAfterTheRestore) {
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<ProducerApp>());
  auto consumer = std::make_unique<ConsumerApp>();
  ConsumerApp* consumer_ptr = consumer.get();
  system.add_app(std::move(consumer));

  // Frame 2's send (3) is still outgoing when the checkpoint is taken.
  system.run(3);
  const SystemCheckpoint cp = system.checkpoint();
  system.run(4);
  EXPECT_EQ(consumer_ptr->last_seen(), 6);
  system.restore(cp);
  EXPECT_EQ(system.messaging().sent, 2u);
  system.run(1);
  EXPECT_EQ(consumer_ptr->last_seen(), 3);
  EXPECT_EQ(system.messaging().sent, 3u);
  EXPECT_EQ(system.messaging().delivered, 3u);
}

TEST(SystemMessaging, MessagesPauseDuringReconfiguration) {
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<ProducerApp>());
  auto consumer = std::make_unique<ConsumerApp>();
  ConsumerApp* consumer_ptr = consumer.get();
  system.add_app(std::move(consumer));

  system.run(3);
  system.set_factor(kChainSeverityFactor, 1);
  system.run(4);  // SFTA: no normal work, no sends
  const std::int64_t during = consumer_ptr->last_seen();
  system.run(3);
  EXPECT_GT(consumer_ptr->last_seen(), during);  // traffic resumed
}

TEST(SystemMessaging, DroppedDuringOutageResumesAfterRepair) {
  // The consumer's host fails: messages addressed to it are dropped
  // (volatile, like the bus) for the outage, then delivery resumes when the
  // host is repaired — no stale backlog appears.
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  params.transition_bound = 16;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<ProducerApp>());
  auto consumer = std::make_unique<ConsumerApp>();
  ConsumerApp* consumer_ptr = consumer.get();
  system.add_app(std::move(consumer));

  sim::FaultPlan plan;
  plan.fail_processor(5 * 10'000, support::synthetic_processor(1));
  plan.repair_processor(12 * 10'000, support::synthetic_processor(1));
  system.set_fault_plan(std::move(plan));
  system.run(20);

  EXPECT_GT(system.messaging().dropped_dead_host, 0u);
  // After repair, delivery resumed: the consumer's last seen value tracks
  // recent production again.
  EXPECT_GE(consumer_ptr->last_seen(), 18);
}

TEST(DeadlineWatchdog, StalledReconfigurationRaisesViolation) {
  // Config 1 places the app on a processor we kill at the same instant the
  // mode change demands it: initialize can never run, the reconfiguration
  // stalls, and the watchdog flags the exceeded T bound exactly once.
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  params.transition_bound = 6;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(1), "b"));

  sim::FaultPlan plan;
  plan.fail_processor(4 * 10'000, synthetic_processor(0));
  system.set_fault_plan(std::move(plan));
  system.run(3);
  system.set_factor(kChainSeverityFactor, 1);
  system.run(30);

  EXPECT_TRUE(trace::incomplete_reconfig(system.trace()).has_value());
  EXPECT_EQ(system.stats().deadline_violations, 1u);
}

TEST(DeadlineWatchdog, HealthyReconfigurationRaisesNothing) {
  support::ChainSpecParams params;
  params.configs = 2;
  params.apps = 2;
  params.transition_bound = 6;
  const ReconfigSpec spec = support::make_chain_spec(params);
  System system(spec);
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(1), "b"));
  system.run(3);
  system.set_factor(kChainSeverityFactor, 1);
  system.run(20);
  EXPECT_EQ(system.stats().deadline_violations, 0u);
}

}  // namespace
}  // namespace arfs::core
