#include "dse/explorer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace dfc::dse {

using dfc::core::ConvPorts;
using dfc::core::NetworkSpec;
using dfc::core::PortPlan;

namespace {

std::vector<int> divisors_up_to(std::int64_t n, int cap) {
  std::vector<int> out;
  for (int d = 1; d <= n && d <= cap; ++d) {
    if (n % d == 0) out.push_back(d);
  }
  return out;
}

/// Shape/channel info of each conv layer, needed to enumerate options.
struct ConvSite {
  std::int64_t in_fm = 0;
  std::int64_t out_fm = 0;
  int taps = 0;
  std::int64_t in_plane = 0;
  std::int64_t out_plane = 0;
};

std::vector<ConvSite> conv_sites(const nn::Sequential& net, const Shape3& input_shape) {
  std::vector<ConvSite> sites;
  Shape3 shape = input_shape;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const nn::Layer& layer = net.layer(i);
    if (layer.kind() == nn::LayerKind::kLinear && shape.h * shape.w != 1) {
      shape = Shape3{shape.volume(), 1, 1};
    }
    if (layer.kind() == nn::LayerKind::kConv) {
      const auto& conv = dynamic_cast<const nn::Conv2d&>(layer);
      ConvSite s;
      s.in_fm = shape.c;
      s.out_fm = conv.out_channels();
      s.taps = conv.kh() * conv.kw();
      s.in_plane = shape.plane();
      const Shape3 os = conv.output_shape(shape);
      s.out_plane = os.plane();
      sites.push_back(s);
    }
    shape = layer.output_shape(shape);
  }
  return sites;
}

/// Cheap pruning score used only by the beam: DSP cost and stage interval of
/// one conv choice (mirrors the cost model's II-sharing rule).
struct PartialScore {
  double dsp = 0.0;
  std::int64_t interval = 0;
};

PartialScore score_choice(const ConvSite& site, const ConvPorts& ports) {
  const std::int64_t ii =
      std::max(site.out_fm / ports.out_ports, site.in_fm / ports.in_ports);
  const std::int64_t macs = site.out_fm * site.in_fm * site.taps;
  PartialScore s;
  s.dsp = static_cast<double>(dfc::ceil_div(macs, ii)) * 5.0;  // 3 DSP mul + 2 DSP add
  s.interval = std::max(site.in_plane * site.in_fm / ports.in_ports, site.out_plane * ii);
  return s;
}

}  // namespace

DseResult explore(const nn::Sequential& net, const Shape3& input_shape,
                  const DseOptions& options) {
  const std::vector<ConvSite> sites = conv_sites(net, input_shape);
  DFC_REQUIRE(!sites.empty(), "DSE needs at least one convolutional layer");

  // Per-site option lists.
  std::vector<std::vector<ConvPorts>> site_options;
  for (const ConvSite& s : sites) {
    std::vector<ConvPorts> opts;
    for (int ip : divisors_up_to(s.in_fm, options.max_ports)) {
      for (int op : divisors_up_to(s.out_fm, options.max_ports)) {
        opts.push_back(ConvPorts{ip, op, false});
      }
    }
    site_options.push_back(std::move(opts));
  }

  // Enumerate plans (optionally beam-pruned on a cheap DSP/interval score).
  struct Partial {
    std::vector<ConvPorts> choice;
    double dsp = 0.0;
    std::int64_t interval = 0;
  };
  std::vector<Partial> frontier{Partial{}};
  for (std::size_t si = 0; si < sites.size(); ++si) {
    std::vector<Partial> next;
    next.reserve(frontier.size() * site_options[si].size());
    for (const Partial& p : frontier) {
      for (const ConvPorts& opt : site_options[si]) {
        Partial q = p;
        q.choice.push_back(opt);
        const PartialScore sc = score_choice(sites[si], opt);
        q.dsp += sc.dsp;
        q.interval = std::max(q.interval, sc.interval);
        next.push_back(std::move(q));
      }
    }
    if (options.beam_width > 0 && next.size() > options.beam_width) {
      std::sort(next.begin(), next.end(), [](const Partial& a, const Partial& b) {
        if (a.interval != b.interval) return a.interval < b.interval;
        return a.dsp < b.dsp;
      });
      next.resize(options.beam_width);
    }
    frontier = std::move(next);
  }

  DseResult result;
  bool have_best = false;
  std::vector<DseCandidate> fitting;

  for (const Partial& p : frontier) {
    PortPlan plan;
    plan.conv = p.choice;
    ++result.candidates_evaluated;

    DseCandidate cand;
    cand.plan = plan;
    try {
      cand.spec = dfc::core::compile(net, input_shape, plan, "dse-candidate");
    } catch (const dfc::ConfigError&) {
      ++result.candidates_rejected;
      continue;  // adapter/divisibility constraints reject this plan
    }
    cand.timing = estimate_timing(cand.spec);
    cand.resources = dfc::hw::estimate_design(cand.spec, options.cost_model).total;
    cand.fits = options.device.fits(cand.resources);
    if (!cand.fits) continue;
    ++result.candidates_fitting;

    const bool better =
        !have_best || cand.timing.interval_cycles < result.best.timing.interval_cycles ||
        (cand.timing.interval_cycles == result.best.timing.interval_cycles &&
         cand.resources.dsp < result.best.resources.dsp);
    if (better) {
      result.best = cand;
      have_best = true;
    }
    fitting.push_back(std::move(cand));
  }

  DFC_REQUIRE(have_best, "DSE found no design that fits the device");

  // Pareto frontier: ascending interval, strictly decreasing DSP.
  std::sort(fitting.begin(), fitting.end(), [](const DseCandidate& a, const DseCandidate& b) {
    if (a.timing.interval_cycles != b.timing.interval_cycles) {
      return a.timing.interval_cycles < b.timing.interval_cycles;
    }
    return a.resources.dsp < b.resources.dsp;
  });
  double best_dsp = std::numeric_limits<double>::infinity();
  for (auto& cand : fitting) {
    if (cand.resources.dsp < best_dsp) {
      best_dsp = cand.resources.dsp;
      result.pareto.push_back(std::move(cand));
    }
  }
  return result;
}

}  // namespace dfc::dse
