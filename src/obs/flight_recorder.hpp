// Flight recorder: a fixed-size, lock-free, per-lane ring of recent frame
// timelines and round summaries, kept always-on at negligible cost so the
// moments *before* an incident are available for postmortem without
// enabling full tracing.
//
// Design:
//  - One lane per shard (or per writer domain). A lane is a power-of-two
//    ring of seqlock-stamped entries. Writers claim a slot with one
//    fetch_add and publish with release stores; no locks, no allocation,
//    bounded memory forever (the `FrameArena` discipline).
//  - Entries are fixed-size PODs — a kind tag, the trace id, the per-stage
//    latency timeline, the verdict summary — so recording a frame is a
//    couple of cache lines.
//  - Readers (dump paths) copy entries out under the seqlock protocol: an
//    entry is valid iff its sequence word is even and unchanged across the
//    copy. Torn entries are simply skipped — a postmortem tool prefers a
//    hole to a lie.
//  - Trigger events (verdict flip to fake, abstain burst, protocol error,
//    session evict) carry a bit; when a recorded entry's bits intersect
//    the armed trigger mask and an auto-dump path is set, the next
//    `maybe_auto_dump()` call (invoked off the hot path, e.g. once per
//    server poll cycle) writes every lane to JSONL.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lumichat::obs {

/// What a flight-recorder entry describes (and, for trigger kinds, which
/// bit it contributes to the auto-dump mask).
enum class FlightKind : std::uint8_t {
  kFrame = 0,          // routine per-verdict timeline
  kVerdictFlip = 1,    // verdict changed vs. the previous window
  kAbstainBurst = 2,   // N consecutive abstains
  kProtocolError = 3,  // malformed wire message killed a connection
  kSessionEvict = 4,   // session torn down
};

/// Trigger bits for `FlightRecorder::set_trigger_mask`.
enum FlightTrigger : std::uint32_t {
  kTriggerVerdictFlip = 1u << 0,
  kTriggerAbstainBurst = 1u << 1,
  kTriggerProtocolError = 1u << 2,
  kTriggerSessionEvict = 1u << 3,
};

/// Fixed-size POD record. All latencies are seconds; unused fields stay 0.
struct FlightEntry {
  std::uint64_t stamp = 0;     // global order stamp (monotone per recorder)
  std::uint64_t trace_id = 0;  // wire-propagated id, 0 when absent
  std::uint64_t session_id = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t window_index = 0;
  FlightKind kind = FlightKind::kFrame;
  std::uint8_t verdict = 0;      // core::Verdict as uint8
  std::uint8_t is_attacker = 0;  // ground-truth label when known
  std::uint8_t lane = 0;
  double lof_score = 0.0;
  double decode_s = 0.0;      // wire decode + enqueue-into-session
  double queue_wait_s = 0.0;  // enqueue -> drain pickup
  double detect_s = 0.0;      // detector work inside drain
  double push_s = 0.0;        // verdict completed -> wire push
  double total_s = 0.0;       // enqueue -> verdict (push_to_verdict)
};

/// Lock-free multi-lane ring of FlightEntry with seqlock publication.
class FlightRecorder {
 public:
  /// `lanes` writer domains, each a ring of `entries_per_lane` slots
  /// (rounded up to a power of two). All memory is allocated here; record()
  /// never allocates.
  FlightRecorder(std::size_t lanes, std::size_t entries_per_lane);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  [[nodiscard]] std::size_t lane_capacity() const { return mask_ + 1; }

  /// Records one entry into `lane` (clamped into range). Lock-free and
  /// allocation-free; safe from any thread. `entry.stamp` and `entry.lane`
  /// are assigned by the recorder.
  void record(std::size_t lane, FlightEntry entry);

  /// Arms automatic dumping: whenever an entry whose kind's trigger bit is
  /// in `mask` is recorded, the next maybe_auto_dump() writes all lanes to
  /// `path`. An empty path disarms.
  void arm_auto_dump(const std::string& path, std::uint32_t mask);

  /// Number of entries recorded whose trigger bit was armed.
  [[nodiscard]] std::uint64_t trigger_count() const {
    return triggers_.load(std::memory_order_relaxed);
  }

  /// Total entries ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded_count() const {
    return stamps_.load(std::memory_order_relaxed);
  }

  /// If a trigger fired since the last dump, writes a JSONL dump to the
  /// armed path and returns true. Call off the hot path (e.g. once per
  /// poll cycle). Never throws; an unwritable path drops the dump.
  bool maybe_auto_dump();

  /// Copies out every currently-valid entry, oldest first (global stamp
  /// order). Torn entries (overwritten mid-copy) are skipped.
  [[nodiscard]] std::vector<FlightEntry> collect() const;

  /// Writes collect() as JSONL (one entry per line) to `path`. Returns
  /// false if the file cannot be written.
  bool dump_jsonl(const std::string& path) const;

  /// One JSONL line for `entry` (exposed for tests).
  [[nodiscard]] static std::string entry_json(const FlightEntry& entry);

 private:
  /// The entry is stored as atomic 64-bit words: a reader may copy a slot
  /// while a writer overwrites it, and only atomic accesses make that copy
  /// defined (and visible to ThreadSanitizer, which does not model fences).
  static constexpr std::size_t kEntryWords = (sizeof(FlightEntry) + 7) / 8;
  struct Slot {
    // Seqlock word: 0 = empty; odd = write in progress; even > 0 = entry
    // published by the claim with stamp (seq / 2) - 1.
    std::atomic<std::uint64_t> seq{0};
    std::array<std::atomic<std::uint64_t>, kEntryWords> words{};
  };
  struct Lane {
    std::unique_ptr<Slot[]> slots;
    std::atomic<std::uint64_t> head{0};  // next claim index
  };

  std::vector<Lane> lanes_;
  std::size_t mask_ = 0;  // entries_per_lane - 1 (power of two)
  std::atomic<std::uint64_t> stamps_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> dumped_triggers_{0};
  std::atomic<std::uint32_t> trigger_mask_{0};
  std::string auto_dump_path_;  // written once at arm time, read by dumps
};

}  // namespace lumichat::obs
