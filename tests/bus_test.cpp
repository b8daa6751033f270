#include <gtest/gtest.h>

#include "arfs/bus/bus.hpp"
#include "arfs/bus/schedule.hpp"
#include "arfs/common/check.hpp"

namespace arfs::bus {
namespace {

TdmaSchedule two_slot_schedule() {
  TdmaSchedule s;
  s.add_slot(EndpointId{1}, 100);
  s.add_slot(EndpointId{2}, 150);
  return s;
}

TEST(TdmaSchedule, RoundLengthSumsSlots) {
  const TdmaSchedule s = two_slot_schedule();
  EXPECT_EQ(s.round_length(), 250);
  EXPECT_EQ(s.slot_count(), 2u);
}

TEST(TdmaSchedule, NextTransmitTimeWithinRound) {
  const TdmaSchedule s = two_slot_schedule();
  // Endpoint 1 owns [0, 100); endpoint 2 owns [100, 250).
  EXPECT_EQ(s.next_transmit_time(EndpointId{1}, 0), 0);
  EXPECT_EQ(s.next_transmit_time(EndpointId{2}, 0), 100);
  EXPECT_EQ(s.next_transmit_time(EndpointId{1}, 50), 250);  // missed own slot
  EXPECT_EQ(s.next_transmit_time(EndpointId{2}, 120), 350);
}

TEST(TdmaSchedule, DeliveryAtSlotEnd) {
  const TdmaSchedule s = two_slot_schedule();
  EXPECT_EQ(s.delivery_time(EndpointId{1}, 0), 100);
  EXPECT_EQ(s.delivery_time(EndpointId{2}, 100), 250);
}

TEST(TdmaSchedule, WorstCaseLatencyIsRoundPlusSlot) {
  const TdmaSchedule s = two_slot_schedule();
  EXPECT_EQ(s.worst_case_latency(EndpointId{1}), 350);
  EXPECT_EQ(s.worst_case_latency(EndpointId{2}), 400);
}

TEST(TdmaSchedule, UnknownEndpointRejected) {
  const TdmaSchedule s = two_slot_schedule();
  EXPECT_FALSE(s.has_endpoint(EndpointId{9}));
  EXPECT_THROW((void)s.next_transmit_time(EndpointId{9}, 0),
               ContractViolation);
}

TEST(Bus, BroadcastExcludesSender) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{1});
  bus.register_endpoint(EndpointId{2});

  bus.post(EndpointId{1}, "topic", std::int64_t{7}, 0);
  bus.deliver_until(100);

  EXPECT_TRUE(bus.collect(EndpointId{1}).empty());
  const auto msgs = bus.collect(EndpointId{2});
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].topic, "topic");
  EXPECT_EQ(msgs[0].delivered_at, 100);
}

TEST(Bus, DeliveryWaitsForSlotEnd) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{2});
  bus.post(EndpointId{1}, "t", std::int64_t{1}, 0);
  bus.deliver_until(99);
  EXPECT_TRUE(bus.collect(EndpointId{2}).empty());
  bus.deliver_until(100);
  EXPECT_EQ(bus.collect(EndpointId{2}).size(), 1u);
}

TEST(Bus, LatencyNeverExceedsWorstCase) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{1});
  bus.register_endpoint(EndpointId{2});
  for (SimTime t = 0; t < 2000; t += 37) {
    bus.post(EndpointId{1}, "t", std::int64_t{t}, t);
    bus.post(EndpointId{2}, "t", std::int64_t{t}, t);
  }
  bus.deliver_until(10'000);
  EXPECT_LE(bus.stats().worst_latency,
            std::max(bus.schedule().worst_case_latency(EndpointId{1}),
                     bus.schedule().worst_case_latency(EndpointId{2})));
}

TEST(Bus, MessagesArriveInDeliveryOrder) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{2});
  bus.post(EndpointId{1}, "t", std::int64_t{1}, 0);    // delivered 100
  bus.post(EndpointId{1}, "t", std::int64_t{2}, 150);  // delivered 350
  bus.deliver_until(1000);
  const auto msgs = bus.collect(EndpointId{2});
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_LT(msgs[0].delivered_at, msgs[1].delivered_at);
}

TEST(Bus, PeekLatestFindsNewestOnTopic) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{2});
  bus.post(EndpointId{1}, "alpha", std::int64_t{1}, 0);
  bus.post(EndpointId{1}, "alpha", std::int64_t{2}, 300);
  bus.deliver_until(1000);
  const Message* m = bus.peek_latest(EndpointId{2}, "alpha");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(std::get<std::int64_t>(m->payload), 2);
  EXPECT_EQ(bus.peek_latest(EndpointId{2}, "other"), nullptr);
}

TEST(Bus, StatsCountPostsAndDeliveries) {
  Bus bus(two_slot_schedule());
  bus.register_endpoint(EndpointId{1});
  bus.register_endpoint(EndpointId{2});
  bus.post(EndpointId{1}, "t", std::int64_t{1}, 0);
  bus.deliver_until(1000);
  EXPECT_EQ(bus.stats().posted, 1u);
  EXPECT_EQ(bus.stats().delivered, 1u);  // one receiver (sender excluded)
}

}  // namespace
}  // namespace arfs::bus
