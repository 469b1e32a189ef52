#include "chat/frame_source.hpp"

#include <utility>

#include "common/rng.hpp"

namespace lumichat::chat {

SessionFrameSource::SessionFrameSource(const SessionSpec& spec,
                                       AliceStream& alice,
                                       RespondentModel& respondent,
                                       std::uint64_t seed)
    : spec_(spec),
      alice_(alice),
      respondent_(&respondent),
      seed_(seed),
      a2b_(spec.alice_to_bob, common::derive_seed(seed, 21)),
      b2a_(spec.bob_to_alice, common::derive_seed(seed, 22)),
      codec_a2b_(spec.codec, common::derive_seed(seed, 23)),
      codec_b2a_(spec.codec, common::derive_seed(seed, 24)),
      plan_(spec.faults, common::derive_seed(seed, 31)),
      tick_(-static_cast<std::ptrdiff_t>(
          tick_count(spec.warmup_s, spec.sample_rate_hz))) {
  if (plan_.any()) install_injectors();
}

void SessionFrameSource::install_injectors() {
  // Stream ids 1/2 = the two link directions; the codec and resolution
  // injectors reuse the same ids for their respective directions.
  a2b_.inject_faults(plan_.link(1));
  b2a_.inject_faults(plan_.link(2));
  collapse_a2b_ = plan_.codec_collapse(spec_.codec.compression, 1);
  collapse_b2a_ = plan_.codec_collapse(spec_.codec.compression, 2);
  res_switch_a2b_ = plan_.resolution_switch(1);
  res_switch_b2a_ = plan_.resolution_switch(2);
}

void SessionFrameSource::apply_faults(const faults::FaultConfig& config,
                                      std::uint64_t phase) {
  spec_.faults = config;
  plan_ = faults::FaultPlan(config, common::derive_seed(seed_, 31 + phase));
  install_injectors();
  if (!collapse_a2b_.enabled()) {
    // The collapse schedule drove the compression away from the spec value;
    // with the injector gone nothing would drive it back.
    codec_a2b_.set_compression(spec_.codec.compression);
  }
  if (!collapse_b2a_.enabled()) {
    codec_b2a_.set_compression(spec_.codec.compression);
  }
}

FramePair SessionFrameSource::next() {
  for (;;) {
    const double t = static_cast<double>(tick_) / spec_.sample_rate_hz;

    // Congestion-style codec collapse: the rate controller follows the
    // injector's deterministic quality schedule.
    if (collapse_a2b_.enabled()) {
      codec_a2b_.set_compression(collapse_a2b_.compression_at(t));
    }
    if (collapse_b2a_.enabled()) {
      codec_b2a_.set_compression(collapse_b2a_.compression_at(t));
    }

    image::Image sent = codec_a2b_.transcode(alice_.frame(t));  // step 1
    a2b_.push(sent, t);                                         // step 2
    const image::Image& on_bobs_screen = a2b_.at(t);            // display
    image::Image bob_out;
    if (res_switch_a2b_.enabled()) {
      // Mid-call resolution drop on the stream Bob's screen displays.
      bob_out = codec_b2a_.transcode(
          respondent_->respond(t, res_switch_a2b_.apply(on_bobs_screen, t)));
    } else {
      bob_out = codec_b2a_.transcode(
          respondent_->respond(t, on_bobs_screen));              // step 3
    }
    b2a_.push(std::move(bob_out), t);                           // step 4

    const bool warming_up = tick_ < 0;
    ++tick_;
    if (warming_up) continue;
    image::Image received = b2a_.at(t);                         // step 5
    if (res_switch_b2a_.enabled()) {
      received = res_switch_b2a_.apply(received, t);
    }
    return FramePair{t, std::move(sent), std::move(received)};
  }
}

}  // namespace lumichat::chat
