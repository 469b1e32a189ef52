#include "optics/camera.hpp"

#include <algorithm>
#include <cmath>

#include "image/luminance.hpp"
#include "simd/dispatch.hpp"

namespace lumichat::optics {

CameraModel::CameraModel(CameraSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {}

void CameraModel::reset() {
  gain_ = 0.0;
  wb_ = image::Pixel{1.0, 1.0, 1.0};
  frames_captured_ = 0;
}

double CameraModel::meter(const image::Image& scene) const {
  if (scene.empty()) return 0.0;
  if (spec_.metering == MeteringMode::kSpot) {
    const auto win_w = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec_.spot_window_frac *
                                    static_cast<double>(scene.width())));
    const auto win_h = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec_.spot_window_frac *
                                    static_cast<double>(scene.height())));
    const double cx = std::clamp(spot_.x, 0.0, 1.0) *
                      static_cast<double>(scene.width() - 1);
    const double cy = std::clamp(spot_.y, 0.0, 1.0) *
                      static_cast<double>(scene.height() - 1);
    image::Rect roi;
    roi.x = static_cast<std::size_t>(
        std::max(0.0, cx - static_cast<double>(win_w) / 2.0));
    roi.y = static_cast<std::size_t>(
        std::max(0.0, cy - static_cast<double>(win_h) / 2.0));
    roi.width = win_w;
    roi.height = win_h;
    return image::roi_luminance(scene, roi);
  }

  // Multi-zone: 5x5 grid, centre-weighted the way consumer firmware does it.
  constexpr std::size_t kZones = 5;
  double acc = 0.0;
  double weight_sum = 0.0;
  for (std::size_t zy = 0; zy < kZones; ++zy) {
    for (std::size_t zx = 0; zx < kZones; ++zx) {
      image::Rect zone;
      zone.x = zx * scene.width() / kZones;
      zone.y = zy * scene.height() / kZones;
      zone.width = scene.width() / kZones;
      zone.height = scene.height() / kZones;
      const double dx = static_cast<double>(zx) - 2.0;
      const double dy = static_cast<double>(zy) - 2.0;
      const double w = 1.0 / (1.0 + 0.5 * (dx * dx + dy * dy));
      acc += w * image::roi_luminance(scene, zone);
      weight_sum += w;
    }
  }
  return weight_sum > 0.0 ? acc / weight_sum : 0.0;
}

image::Image CameraModel::capture(const image::Image& scene) {
  const double metered = meter(scene);
  constexpr double kFullScale = 255.0;
  const double ideal_gain =
      metered > 1e-9 ? spec_.exposure_target * kFullScale / metered : gain_;
  if (gain_ <= 0.0) {
    gain_ = ideal_gain;  // first frame: firmware snaps exposure immediately
  } else {
    gain_ += spec_.adaptation_rate * (ideal_gain - gain_);
  }

  if (spec_.auto_white_balance && !scene.empty()) {
    // Grey-world estimate: gains that would equalise the channel means.
    const image::Pixel mean = scene.mean_pixel();
    const double grey = (mean.r + mean.g + mean.b) / 3.0;
    if (grey > 1e-9 && mean.r > 1e-9 && mean.g > 1e-9 && mean.b > 1e-9) {
      const image::Pixel ideal{grey / mean.r, grey / mean.g, grey / mean.b};
      wb_.r += spec_.awb_rate * (ideal.r - wb_.r);
      wb_.g += spec_.awb_rate * (ideal.g - wb_.g);
      wb_.b += spec_.awb_rate * (ideal.b - wb_.b);
    }
  }

  // Capture-pipeline degradation: a multiplicative wobble on the exposure
  // gain and opposing red/blue gains, as a function of capture time. The
  // wobble is measured, not integrated, so it never corrupts the adaptation
  // state — severity 0 leaves every state variable untouched.
  double effective_gain = gain_;
  image::Pixel effective_wb = wb_;
  if (spec_.drift.enabled()) {
    constexpr double kTwoPi = 6.283185307179586;
    const double t =
        static_cast<double>(frames_captured_) / spec_.frame_rate_hz;
    if (spec_.drift.gain_amplitude > 0.0) {
      effective_gain *=
          1.0 + spec_.drift.gain_amplitude *
                    std::sin(kTwoPi * t / spec_.drift.gain_period_s +
                             spec_.drift.gain_phase);
    }
    if (spec_.drift.wb_amplitude > 0.0) {
      const double shift =
          spec_.drift.wb_amplitude *
          std::sin(kTwoPi * t / spec_.drift.wb_period_s +
                   spec_.drift.wb_phase);
      effective_wb.r *= 1.0 + shift;
      effective_wb.b *= 1.0 - shift;
    }
  }
  ++frames_captured_;

  // Develop every channel of every pixel (hot path: two captures per
  // simulated chat tick). Read and shot noise are
  // independent Gaussians, folded into one draw with the combined
  // variance; the draws come in raster r,g,b order, a stack chunk at a
  // time, exactly as one gaussian() call per channel would produce them.
  simd::CameraDevelop develop;
  develop.wb[0] = effective_wb.r;
  develop.wb[1] = effective_wb.g;
  develop.wb[2] = effective_wb.b;
  develop.gain = effective_gain;
  develop.read_var = spec_.read_noise_sigma * spec_.read_noise_sigma;
  develop.shot_var = spec_.shot_noise_coeff * spec_.shot_noise_coeff;
  develop.quantize = spec_.quantize;
  const simd::Kernels& kernels = simd::active();
  constexpr std::size_t kChunkPixels = 96;
  double z[kChunkPixels * 3];
  image::Image out(scene.width(), scene.height());
  const auto* src = reinterpret_cast<const double*>(scene.data());
  auto* dst = reinterpret_cast<double*>(out.data());
  const std::size_t npix = scene.pixels().size();
  for (std::size_t p = 0; p < npix; p += kChunkPixels) {
    const std::size_t m = std::min(kChunkPixels, npix - p);
    rng_.std_normal_fill(z, m * 3);
    kernels.camera_develop(src + p * 3, z, m, develop, dst + p * 3);
  }
  return out;
}

}  // namespace lumichat::optics
