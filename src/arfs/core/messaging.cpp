#include "arfs/core/messaging.hpp"

#include <utility>

namespace arfs::core {

void Mailbox::send(AppId to, std::string topic, storage::Value payload) {
  AppMessage msg;
  msg.to = to;
  msg.topic = std::move(topic);
  msg.payload = std::move(payload);
  outgoing_.push_back(std::move(msg));
  ++router_->outgoing_;
}

const AppMessage* Mailbox::latest(const std::string& topic) const {
  for (auto it = inbox_.rbegin(); it != inbox_.rend(); ++it) {
    if (it->topic == topic) return &*it;
  }
  return nullptr;
}

MessageRouter::MessageRouter(const MessageRouter& other)
    : boxes_(other.boxes_), stats_(other.stats_), outgoing_(other.outgoing_),
      delivered_(other.delivered_) {
  adopt_boxes();
}

MessageRouter::MessageRouter(MessageRouter&& other) noexcept
    : boxes_(std::move(other.boxes_)), stats_(other.stats_),
      outgoing_(other.outgoing_), delivered_(other.delivered_) {
  adopt_boxes();
}

MessageRouter& MessageRouter::operator=(const MessageRouter& other) {
  if (this == &other) return *this;
  boxes_ = other.boxes_;
  stats_ = other.stats_;
  outgoing_ = other.outgoing_;
  delivered_ = other.delivered_;
  adopt_boxes();
  return *this;
}

MessageRouter& MessageRouter::operator=(MessageRouter&& other) noexcept {
  boxes_ = std::move(other.boxes_);
  stats_ = other.stats_;
  outgoing_ = other.outgoing_;
  delivered_ = other.delivered_;
  adopt_boxes();
  return *this;
}

void MessageRouter::adopt_boxes() {
  for (auto& [app, box] : boxes_) box.router_ = this;
}

Mailbox& MessageRouter::endpoint(AppId app) {
  // Only a new box is pointed here: an existing one already points at this
  // router (the copies and moves re-point every box they carry).
  const auto [it, created] = boxes_.try_emplace(app);
  if (created) it->second.router_ = this;
  return it->second;
}

bool MessageRouter::has_endpoint(AppId app) const {
  return boxes_.contains(app);
}

}  // namespace arfs::core
