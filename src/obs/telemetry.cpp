#include "obs/telemetry.hpp"

#include <chrono>

namespace ccd::obs {

void EngineCounters::add(const EngineCounters& other) {
  for (const EngineCounterField& f : kEngineCounterFields) {
    this->*(f.member) += other.*(f.member);
  }
}

void Telemetry::Sink::add_engine(const EngineCounters& ec) {
  std::size_t slot = kFirstEngineCounter;
  for (const EngineCounterField& f : kEngineCounterFields) {
    slots_[slot++].fetch_add(ec.*(f.member), std::memory_order_relaxed);
  }
}

Telemetry::Sink& Telemetry::create_sink() {
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::make_unique<Sink>());
  return *sinks_.back();
}

std::array<std::uint64_t, kNumCounters> Telemetry::totals() const {
  std::array<std::uint64_t, kNumCounters> out{};
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sink : sinks_) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      out[i] += sink->slots_[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Telemetry::total(Counter c) const {
  return totals()[static_cast<std::size_t>(c)];
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& sink : sinks_) {
    for (auto& slot : sink->slots_) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

Telemetry& Telemetry::global() {
  static Telemetry instance;
  return instance;
}

Telemetry::Sink& Telemetry::thread_sink() {
  thread_local Sink* sink = &global().create_sink();
  return *sink;
}

std::uint64_t RunTimer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace ccd::obs
