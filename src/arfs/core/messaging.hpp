// Inter-application message passing.
//
// Paper section 3: "Applications communicate via message passing or by
// sharing state through the processors' stable storage." StableRegion +
// PeerReader cover the second mechanism; Mailbox covers the first: an
// application sends during its frame, and the platform (conceptually the
// time-triggered bus, whose worst-case latency is below one frame) delivers
// at the start of the next frame. Messages are volatile: a receiver whose
// processor has fail-stopped at delivery time loses them — state that must
// survive failures belongs in stable storage, exactly as in the model.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::core {

struct AppMessage {
  AppId from{};
  AppId to{};
  std::string topic;
  storage::Value payload;
  Cycle sent_cycle = 0;
};

struct MessagingStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_dead_host = 0;  ///< Receiver host was fail-stopped.
  std::uint64_t dropped_unknown = 0;    ///< Receiver app does not exist.
};

class MessageRouter;

/// Per-application send/receive endpoint, made by MessageRouter::endpoint.
class Mailbox {
 public:
  /// Queues a message for delivery at the start of the next frame.
  void send(AppId to, std::string topic, storage::Value payload);

  /// Messages delivered to this application this frame, in send order.
  [[nodiscard]] const std::vector<AppMessage>& inbox() const {
    return inbox_;
  }

  /// Latest delivered message on `topic` this frame, or nullptr.
  [[nodiscard]] const AppMessage* latest(const std::string& topic) const;

 private:
  friend class MessageRouter;
  MessageRouter* router_ = nullptr;  ///< Counts this box's sends.
  std::vector<AppMessage> outgoing_;
  std::vector<AppMessage> inbox_;
};

/// Owns all mailboxes and performs the frame-boundary exchange.
class MessageRouter {
 public:
  MessageRouter() = default;
  /// Copies and moves carry the mail in flight and point every mailbox at
  /// its new router, so a send on a copy's mailbox is seen by that copy.
  MessageRouter(const MessageRouter& other);
  MessageRouter(MessageRouter&& other) noexcept;
  MessageRouter& operator=(const MessageRouter& other);
  MessageRouter& operator=(MessageRouter&& other) noexcept;

  /// Registers an application endpoint. Idempotent.
  Mailbox& endpoint(AppId app);
  [[nodiscard]] bool has_endpoint(AppId app) const;

  /// Frame-start delivery: clears every inbox, then moves each message
  /// staged during the previous frame into its receiver's inbox.
  /// `receiver_alive(app)` gates delivery (dead-host messages are dropped).
  template <typename AliveFn>
  void exchange(Cycle cycle, AliveFn&& receiver_alive) {
    // Only a delivery fills an inbox and only a send an outgoing queue, so
    // a frame after one that delivered nothing, in which nobody sent (the
    // steady frame of most specs), touches no mailbox.
    if (delivered_) {
      for (auto& [app, box] : boxes_) box.inbox_.clear();
      delivered_ = false;
    }
    if (outgoing_ == 0) return;
    outgoing_ = 0;
    for (auto& [app, box] : boxes_) {
      stats_.sent += box.outgoing_.size();
      for (AppMessage& msg : box.outgoing_) {
        msg.sent_cycle = cycle == 0 ? 0 : cycle - 1;
        const auto it = boxes_.find(msg.to);
        if (it == boxes_.end()) {
          ++stats_.dropped_unknown;
          continue;
        }
        if (!receiver_alive(msg.to)) {
          ++stats_.dropped_dead_host;
          continue;
        }
        msg.from = app;
        it->second.inbox_.push_back(std::move(msg));
        ++stats_.delivered;
        delivered_ = true;
      }
      box.outgoing_.clear();
    }
  }

  [[nodiscard]] const MessagingStats& stats() const { return stats_; }

 private:
  friend class Mailbox;
  /// Points every mailbox at this router (after a copy or a move).
  void adopt_boxes();

  std::map<AppId, Mailbox> boxes_;
  MessagingStats stats_;
  /// Messages sent since the last exchange, in every outgoing queue.
  std::size_t outgoing_ = 0;
  /// The last exchange delivered mail, so some inbox may hold it.
  bool delivered_ = false;
};

}  // namespace arfs::core
