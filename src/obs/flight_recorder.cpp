#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace lumichat::obs {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint32_t trigger_bit(FlightKind kind) {
  switch (kind) {
    case FlightKind::kVerdictFlip:
      return kTriggerVerdictFlip;
    case FlightKind::kAbstainBurst:
      return kTriggerAbstainBurst;
    case FlightKind::kProtocolError:
      return kTriggerProtocolError;
    case FlightKind::kSessionEvict:
      return kTriggerSessionEvict;
    case FlightKind::kFrame:
      return 0;
  }
  return 0;
}

const char* kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kFrame:
      return "frame";
    case FlightKind::kVerdictFlip:
      return "verdict_flip";
    case FlightKind::kAbstainBurst:
      return "abstain_burst";
    case FlightKind::kProtocolError:
      return "protocol_error";
    case FlightKind::kSessionEvict:
      return "session_evict";
  }
  return "unknown";
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t lanes,
                               std::size_t entries_per_lane) {
  if (lanes == 0) lanes = 1;
  const std::size_t cap = round_up_pow2(std::max<std::size_t>(entries_per_lane, 2));
  mask_ = cap - 1;
  lanes_ = std::vector<Lane>(lanes);
  for (Lane& lane : lanes_) {
    lane.slots = std::make_unique<Slot[]>(cap);
  }
}

void FlightRecorder::record(std::size_t lane_idx, FlightEntry entry) {
  if (lane_idx >= lanes_.size()) lane_idx = lanes_.size() - 1;
  Lane& lane = lanes_[lane_idx];
  entry.stamp = stamps_.fetch_add(1, std::memory_order_relaxed);
  entry.lane = static_cast<std::uint8_t>(lane_idx & 0xff);

  const std::uint64_t claim = lane.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = lane.slots[claim & mask_];
  // Seqlock write: odd marks in-progress, the final even value encodes the
  // claim so readers can detect a same-slot overwrite that completed
  // between their two sequence loads. The word stores are release so a
  // reader that sees any of them also sees the odd mark before it.
  std::uint64_t raw[kEntryWords] = {};
  std::memcpy(raw, &entry, sizeof(FlightEntry));
  slot.seq.store(2 * claim + 1, std::memory_order_relaxed);
  for (std::size_t w = 0; w < kEntryWords; ++w) {
    slot.words[w].store(raw[w], std::memory_order_release);
  }
  slot.seq.store(2 * claim + 2, std::memory_order_release);

  const std::uint32_t bit = trigger_bit(entry.kind);
  if (bit != 0 &&
      (bit & trigger_mask_.load(std::memory_order_relaxed)) != 0) {
    triggers_.fetch_add(1, std::memory_order_release);
  }
}

void FlightRecorder::arm_auto_dump(const std::string& path,
                                   std::uint32_t mask) {
  auto_dump_path_ = path;
  trigger_mask_.store(path.empty() ? 0 : mask, std::memory_order_relaxed);
}

bool FlightRecorder::maybe_auto_dump() {
  const std::uint64_t fired = triggers_.load(std::memory_order_acquire);
  if (fired == dumped_triggers_.load(std::memory_order_relaxed)) return false;
  dumped_triggers_.store(fired, std::memory_order_relaxed);
  if (auto_dump_path_.empty()) return false;
  return dump_jsonl(auto_dump_path_);
}

std::vector<FlightEntry> FlightRecorder::collect() const {
  std::vector<FlightEntry> out;
  out.reserve(lanes_.size() * (mask_ + 1));
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Slot& slot = lane.slots[i];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // empty or write in progress
      // Acquire word loads keep the second sequence load after them.
      std::uint64_t raw[kEntryWords];
      for (std::size_t w = 0; w < kEntryWords; ++w) {
        raw[w] = slot.words[w].load(std::memory_order_acquire);
      }
      const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) continue;  // torn: overwritten during the copy
      FlightEntry copy;
      std::memcpy(&copy, raw, sizeof(FlightEntry));
      out.push_back(copy);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEntry& a, const FlightEntry& b) {
              return a.stamp < b.stamp;
            });
  return out;
}

std::string FlightRecorder::entry_json(const FlightEntry& entry) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"stamp\":%" PRIu64 ",\"kind\":\"%s\",\"lane\":%u,\"trace_id\":%" PRIu64
      ",\"session_id\":%" PRIu64
      ",\"stream_id\":%u,\"window_index\":%u,\"verdict\":%u,"
      "\"is_attacker\":%u,\"lof_score\":%.9g,\"decode_s\":%.6g,"
      "\"queue_wait_s\":%.6g,\"detect_s\":%.6g,\"push_s\":%.6g,"
      "\"total_s\":%.6g}",
      entry.stamp, kind_name(entry.kind),
      static_cast<unsigned>(entry.lane), entry.trace_id, entry.session_id,
      entry.stream_id, entry.window_index,
      static_cast<unsigned>(entry.verdict),
      static_cast<unsigned>(entry.is_attacker), entry.lof_score,
      entry.decode_s, entry.queue_wait_s, entry.detect_s, entry.push_s,
      entry.total_s);
  return buf;
}

bool FlightRecorder::dump_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<FlightEntry> entries = collect();
  for (const FlightEntry& e : entries) {
    const std::string line = entry_json(e);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  return true;
}

}  // namespace lumichat::obs
