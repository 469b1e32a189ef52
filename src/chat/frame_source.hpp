// Incremental frame-pair source — the per-tick chat loop of run_session
// (Fig. 4, steps 1-4) factored into a stepper.
//
// run_session records a complete fixed-length clip, which is the right shape
// for the batch Detector but not for callers that consume frames one at a
// time: the StreamingDetector and, above it, the service runtime's load
// generator, which drives hundreds of concurrent chats and must interleave
// their ticks. SessionFrameSource owns the in-flight network/codec state of
// one chat and yields one simultaneous (transmitted, received) pair per
// call, indefinitely. run_session() is a thin collector over this class, so
// the batch and streaming paths are bit-identical by construction.
#pragma once

#include <cstdint>

#include "chat/alice.hpp"
#include "chat/codec.hpp"
#include "chat/network.hpp"
#include "chat/respondent.hpp"
#include "chat/session.hpp"
#include "faults/plan.hpp"
#include "image/image.hpp"

namespace lumichat::chat {

/// One simultaneous pair of frames as observed by Alice's side at `t_sec`.
struct FramePair {
  double t_sec = 0.0;
  image::Image transmitted;  ///< Alice's own outgoing frame (step 1)
  image::Image received;     ///< Bob's frame as it arrives at Alice (step 4)
};

class SessionFrameSource {
 public:
  /// `alice` and `respondent` are borrowed and must outlive the source;
  /// they keep their state across sources, continuing the same chat.
  /// Channel and codec seeds derive from `seed` with the same stream ids
  /// run_session has always used, so a source-driven session reproduces a
  /// run_session trace exactly.
  SessionFrameSource(const SessionSpec& spec, AliceStream& alice,
                     RespondentModel& respondent, std::uint64_t seed);

  /// Advances the chat by one tick and returns the observed pair. The first
  /// call runs the unrecorded warm-up (spec.warmup_s of chat at negative
  /// time) before producing t = 0. The stream is unbounded: spec.duration_s
  /// does not limit it — callers decide when the session ends.
  [[nodiscard]] FramePair next();

  /// Swaps who answers from the next tick on — a mid-call attacker takeover
  /// (or a restore) as the scenario engine scripts it. Alice, the network
  /// channels and the codecs keep their state: only the respondent changes,
  /// exactly as a reenactor hijacking the victim's established stream would
  /// appear to the far side. `respondent` is borrowed and must outlive the
  /// source.
  void set_respondent(RespondentModel& respondent) {
    respondent_ = &respondent;
  }

  /// Re-plans this session's degradations from the next tick on (a timeline
  /// severity-ramp step). Builds a fresh FaultPlan from (config,
  /// derive_seed(session seed, 31 + phase)) — phase 0 is the constructor's
  /// plan, so successive ramp steps get decorrelated injector streams — and
  /// swaps the link/codec/resolution injectors in place. A zero-severity
  /// config removes every injector and restores the codec's base
  /// compression: the clean path, consuming no fault RNG, exactly as if the
  /// session had been built faultless (channel state persists, so frames
  /// already in flight still carry the old degradation).
  /// Camera-level drift is not applied here — cameras belong to `alice` /
  /// `respondent`; reenact/call.hpp binds it through their CameraSpecs.
  void apply_faults(const faults::FaultConfig& config, std::uint64_t phase);

 private:
  /// (Re)builds the link/codec/resolution injectors from plan_.
  void install_injectors();

  SessionSpec spec_;
  AliceStream& alice_;
  RespondentModel* respondent_;  ///< borrowed; swappable mid-call
  std::uint64_t seed_;           ///< for per-phase fault-plan derivation
  NetworkChannel a2b_;
  NetworkChannel b2a_;
  VideoCodec codec_a2b_;
  VideoCodec codec_b2a_;
  faults::FaultPlan plan_;
  faults::CodecCollapse collapse_a2b_;
  faults::CodecCollapse collapse_b2a_;
  faults::ResolutionSwitch res_switch_a2b_;
  faults::ResolutionSwitch res_switch_b2a_;
  std::ptrdiff_t tick_;
};

}  // namespace lumichat::chat
