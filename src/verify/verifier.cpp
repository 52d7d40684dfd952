#include "verify/verifier.hpp"

#include <algorithm>
#include <sstream>

#include "common/json.hpp"
#include "dse/throughput_model.hpp"
#include "multifpga/partition.hpp"

namespace dfc::verify {

using dfc::core::BuildOptions;
using dfc::core::DesignGraph;
using dfc::core::NetworkSpec;

namespace {

std::string fmt_units(double v) { return std::to_string(static_cast<std::int64_t>(v + 0.5)); }

std::size_t count(const std::vector<Diagnostic>& ds, Severity severity) {
  return static_cast<std::size_t>(std::count_if(
      ds.begin(), ds.end(), [severity](const Diagnostic& d) { return d.severity == severity; }));
}

// --- rate consistency ---------------------------------------------------------

/// Emits DF201/DF202/DF203 and returns the design interval: the Eq. 4 model
/// (dse::estimate_timing), with a link stage at every device boundary
/// (mfpga::estimate_multi_timing) when `layer_device` is set. Requires a spec
/// that passed check_spec with no errors.
std::int64_t check_rates(const NetworkSpec& spec, const BuildOptions& options,
                         const std::vector<std::size_t>& layer_device, int credits,
                         std::vector<Diagnostic>& out) {
  // FIFO depth sufficiency: under the two-phase update a push lands at the
  // end of the cycle, so a capacity-1 channel cannot hold one word in flight
  // while the producer prepares the next — every transfer alternates with a
  // full-stall cycle, halving the rate Eq. 4 assumes. Capacity 0 can never
  // transfer at all.
  const auto check_capacity = [&](std::size_t cap, const char* which) {
    if (cap == 0) {
      Diagnostic d(Code::DF201, which, "capacity 0 channel can never transfer a word");
      d.severity = Severity::kError;
      out.push_back(std::move(d));
    } else if (cap < 2) {
      out.push_back({Code::DF201, which,
                     "capacity " + std::to_string(cap) +
                         " halves the sustained rate under the two-phase FIFO update; "
                         "use a depth of at least 2"});
    }
  };
  check_capacity(options.stream_fifo_capacity, "stream-fifo");
  check_capacity(options.window_fifo_capacity, "window-fifo");

  if (layer_device.empty()) return dfc::dse::estimate_timing(spec).interval_cycles;

  // Credit window vs round trip: below ceil(2*latency/cpw)+2 the Tx idles
  // waiting for returns and the serializer cannot sustain its rate (the
  // conservation argument in core/interlink.hpp).
  if (credits > 0) {
    const int needed = dfc::core::InterLinkModel{options.link, 0}.effective_credits();
    if (credits < needed) {
      out.push_back({Code::DF203, "interlink",
                     "credit window " + std::to_string(credits) +
                         " is below the full round trip (" + std::to_string(needed) +
                         " credits); the link throttles to one word per " +
                         std::to_string(dfc::core::InterLinkModel{options.link, credits}
                                            .effective_cycles_per_word()) +
                         " cycles"});
    }
  }

  // estimate_multi_timing appends one "link<i>-><i+1>" stage per boundary
  // after the compute stages; each link that is slower than every stage
  // before it throttles the design.
  const dfc::dse::TimingEstimate est =
      dfc::mfpga::estimate_multi_timing(spec, layer_device, options.link, credits);
  const std::size_t compute_stages = spec.layers.size() + 2;  // dma-in, layers, dma-out
  std::int64_t interval = 0;
  for (std::size_t i = 0; i < est.stages.size(); ++i) {
    const dfc::dse::StageTiming& st = est.stages[i];
    if (i >= compute_stages && st.cycles_per_image > interval) {
      out.push_back({Code::DF202, st.name,
                     "link sustains " + std::to_string(st.cycles_per_image) +
                         " cycles/image, throttling the compute interval of " +
                         std::to_string(interval)});
    }
    interval = std::max(interval, st.cycles_per_image);
  }
  return est.interval_cycles;
}

// --- resource budget (Table I) -----------------------------------------------

void check_budget(const NetworkSpec& spec, const std::vector<std::size_t>& layer_device,
                  std::size_t num_devices, const VerifyOptions& vopts,
                  std::vector<Diagnostic>& out) {
  const auto usage = dfc::mfpga::usage_per_device(
      spec,
      layer_device.empty() ? std::vector<std::size_t>(spec.layers.size(), 0) : layer_device,
      num_devices, vopts.cost_model);
  const dfc::hw::Device& dev = vopts.device;
  for (std::size_t d = 0; d < num_devices; ++d) {
    const dfc::hw::ResourceUsage& u = usage[d];
    const std::string entity = "fpga" + std::to_string(d);
    std::string over;
    const auto flag = [&](const char* res, double used, double avail) {
      if (used > avail) {
        if (!over.empty()) over += ", ";
        over += std::string(res) + " " + fmt_units(used) + "/" + fmt_units(avail);
      }
    };
    flag("lut", u.lut, dev.luts);
    flag("ff", u.ff, dev.ffs);
    flag("bram36", u.bram36, dev.bram36);
    flag("dsp", u.dsp, dev.dsps);
    if (!over.empty()) {
      out.push_back({Code::DF401, entity,
                     "exceeds " + dev.name + " budget: " + over});
      continue;
    }
    const dfc::hw::ResourceUsage frac = dev.utilization(u);
    const double worst = std::max({frac.lut, frac.ff, frac.bram36, frac.dsp});
    if (worst > vopts.headroom_warn_fraction) {
      out.push_back({Code::DF402, entity,
                     "peak utilization " + fmt_units(worst * 100.0) + "% of " + dev.name +
                         " is above the " + fmt_units(vopts.headroom_warn_fraction * 100.0) +
                         "% headroom threshold"});
    }
  }
}

}  // namespace

// --- graph checks (DF0xx, DF3xx) ---------------------------------------------

VerifyReport verify_graph(const DesignGraph& graph) {
  VerifyReport r;
  r.channels_checked = graph.channels.size();
  r.stages_checked = graph.nodes.size();
  auto& out = r.diagnostics;

  // DF003: duplicate channel / process names (one shared namespace, same as
  // SimContext's find_fifo/trace entities).
  {
    std::vector<std::string> names;
    names.reserve(graph.channels.size() + graph.nodes.size());
    for (const auto& c : graph.channels) names.push_back(c.name);
    for (const auto& n : graph.nodes) names.push_back(n.name);
    std::sort(names.begin(), names.end());
    for (std::size_t i = 1; i < names.size(); ++i) {
      if (names[i] == names[i - 1] && (i == 1 || names[i] != names[i - 2])) {
        out.push_back({Code::DF003, names[i], "duplicate channel or process name"});
      }
    }
  }

  // DF001 / DF002: unbound channel endpoints.
  for (const auto& c : graph.channels) {
    if (c.producer < 0) {
      out.push_back({Code::DF001, c.name,
                     "channel has no producer; any consumer starves forever"});
    }
    if (c.consumer < 0) {
      out.push_back({Code::DF002, c.name,
                     "channel has no consumer; it fills up and wedges its producer"});
    }
  }

  // DF004: stages unreachable from any source (a node with no inputs).
  {
    std::vector<char> reached(graph.nodes.size(), 0);
    std::vector<int> work;
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (graph.nodes[n].inputs.empty()) {
        reached[n] = 1;
        work.push_back(static_cast<int>(n));
      }
    }
    while (!work.empty()) {
      const int n = work.back();
      work.pop_back();
      for (int ch : graph.nodes[static_cast<std::size_t>(n)].outputs) {
        const int m = graph.channels[static_cast<std::size_t>(ch)].consumer;
        if (m >= 0 && !reached[static_cast<std::size_t>(m)]) {
          reached[static_cast<std::size_t>(m)] = 1;
          work.push_back(m);
        }
      }
    }
    for (std::size_t n = 0; n < graph.nodes.size(); ++n) {
      if (!reached[n]) {
        out.push_back({Code::DF004, graph.nodes[n].name,
                       "stage is unreachable from any source; it never sees data"});
      }
    }
  }

  // DF302: channel cycles. Every FIFO starts empty, so a cycle means every
  // process on it waits for data that can only come from the cycle itself —
  // a guaranteed circular wait once the feedback path is exercised.
  {
    enum : char { kWhite, kGrey, kBlack };
    std::vector<char> color(graph.nodes.size(), kWhite);
    // Iterative DFS; on a grey->grey edge, report the channel closing the cycle.
    struct Frame {
      int node;
      std::size_t next_out = 0;
    };
    for (std::size_t root = 0; root < graph.nodes.size(); ++root) {
      if (color[root] != kWhite) continue;
      std::vector<Frame> stack{{static_cast<int>(root)}};
      color[root] = kGrey;
      while (!stack.empty()) {
        Frame& f = stack.back();
        const auto& outputs = graph.nodes[static_cast<std::size_t>(f.node)].outputs;
        if (f.next_out >= outputs.size()) {
          color[static_cast<std::size_t>(f.node)] = kBlack;
          stack.pop_back();
          continue;
        }
        const int ch = outputs[f.next_out++];
        const int m = graph.channels[static_cast<std::size_t>(ch)].consumer;
        if (m < 0) continue;
        if (color[static_cast<std::size_t>(m)] == kGrey) {
          out.push_back({Code::DF302, graph.channels[static_cast<std::size_t>(ch)].name,
                         "channel closes a feedback cycle through " +
                             graph.nodes[static_cast<std::size_t>(m)].name +
                             "; FIFOs start empty, so the loop deadlocks on first use"});
        } else if (color[static_cast<std::size_t>(m)] == kWhite) {
          color[static_cast<std::size_t>(m)] = kGrey;
          stack.push_back({m});
        }
      }
    }
  }

  // DF301: a sink that insists on more words per image than the pipeline
  // statically delivers waits forever on the missing tail.
  if (graph.delivered_per_image > 0) {
    for (const auto& n : graph.nodes) {
      if (n.demand_per_image > graph.delivered_per_image) {
        out.push_back({Code::DF301, n.name,
                       "sink demands " + std::to_string(n.demand_per_image) +
                           " words/image but the pipeline delivers " +
                           std::to_string(graph.delivered_per_image)});
      }
    }
  }
  return r;
}

// --- top-level entry points --------------------------------------------------

namespace {

std::size_t devices_used(const std::vector<std::size_t>& layer_device) {
  return layer_device.empty() ? 1 : *std::max_element(layer_device.begin(), layer_device.end()) + 1;
}

/// Appends `ds` to the report; true when none of them is an error.
bool append(VerifyReport& r, std::vector<Diagnostic> ds) {
  const bool ok = count(ds, Severity::kError) == 0;
  for (auto& d : ds) r.diagnostics.push_back(std::move(d));
  return ok;
}

void merge_graph_checks(VerifyReport& r, const DesignGraph& graph) {
  VerifyReport g = verify_graph(graph);
  r.channels_checked = g.channels_checked;
  r.stages_checked = g.stages_checked;
  append(r, std::move(g.diagnostics));
}

}  // namespace

VerifyReport verify_design(const NetworkSpec& spec, const BuildOptions& options,
                           const VerifyOptions& vopts) {
  VerifyReport r;
  r.design = spec.name;

  const bool shapes_ok = append(r, dfc::core::check_spec(spec));
  if (!shapes_ok) return r;  // rate/graph/budget math is meaningless on broken shapes

  r.predicted_interval_cycles = check_rates(spec, options, {}, /*credits=*/0, r.diagnostics);
  merge_graph_checks(r, dfc::core::elaborate(spec, options));
  check_budget(spec, {}, r.devices, vopts, r.diagnostics);
  return r;
}

VerifyReport verify_design_multi(const NetworkSpec& spec,
                                 const std::vector<std::size_t>& layer_device,
                                 const BuildOptions& options, int link_credits,
                                 const VerifyOptions& vopts) {
  VerifyReport r;
  r.design = spec.name;

  const bool shapes_ok = append(r, dfc::core::check_spec(spec));
  const bool partition_ok = append(r, dfc::core::check_partition(spec, layer_device));
  r.devices = partition_ok ? devices_used(layer_device) : 1;
  if (link_credits < 0) {
    r.diagnostics.push_back({Code::DF203, "interlink", "credit count must be non-negative"});
  }
  if (!shapes_ok || !partition_ok) return r;

  r.predicted_interval_cycles =
      check_rates(spec, options, layer_device, link_credits, r.diagnostics);
  merge_graph_checks(r, dfc::core::elaborate(spec, options, layer_device, link_credits));
  check_budget(spec, layer_device, r.devices, vopts, r.diagnostics);
  return r;
}

// --- report rendering --------------------------------------------------------

std::size_t VerifyReport::errors() const { return count(diagnostics, Severity::kError); }
std::size_t VerifyReport::warnings() const { return count(diagnostics, Severity::kWarning); }

bool VerifyReport::has(Code code) const {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

std::string VerifyReport::render() const {
  std::ostringstream os;
  os << "verify '" << design << "': " << devices << " device(s), " << stages_checked
     << " stage(s), " << channels_checked << " channel(s), predicted interval "
     << predicted_interval_cycles << " cycles/image\n";
  for (const Diagnostic& d : diagnostics) os << "  " << d.str() << "\n";
  if (diagnostics.empty()) {
    os << "  clean: no diagnostics\n";
  } else {
    os << "  " << errors() << " error(s), " << warnings() << " warning(s)\n";
  }
  return os.str();
}

std::string VerifyReport::to_json() const {
  std::ostringstream os;
  os << "{\"design\": \"" << json_escape(design) << "\", \"devices\": " << devices
     << ", \"predicted_interval_cycles\": " << predicted_interval_cycles
     << ", \"stages\": " << stages_checked << ", \"channels\": " << channels_checked
     << ", \"errors\": " << errors() << ", \"warnings\": " << warnings()
     << ", \"clean\": " << (clean() ? "true" : "false") << ", \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) os << ", ";
    os << "{\"code\": \"" << code_name(d.code) << "\", \"severity\": \""
       << severity_name(d.severity) << "\", \"entity\": \"" << json_escape(d.entity)
       << "\", \"message\": \"" << json_escape(d.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dfc::verify
