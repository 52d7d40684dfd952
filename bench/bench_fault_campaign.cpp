// Fault-injection campaigns: how often does a transient fault in the
// dataflow fabric corrupt an inference silently, and what does recovery
// cost once detection is armed?
//
// For each design a fixed-seed campaign sweeps random single faults
// (payload bit-flips, handshake jams, dropped and duplicated DMA flits)
// over every FIFO in the fabric and over the fault-free execution window,
// then classifies each trial against the golden batch:
//   masked               the fault landed but the outputs still match;
//   detected_recovered   a checksum/range/framing guard or the cycle-budget
//                        watchdog flagged the run; a clean re-run recovers
//                        the batch, so the recovery latency is the cycles
//                        burned by the faulted attempt;
//   sdc                  wrong outputs and no detector fired (silent data
//                        corruption) — the failure mode the guards exist
//                        to eliminate;
//   hang                 detection off and the run exceeded its budget.
//
// Expected shapes:
//   * with detection armed the SDC rate is exactly zero: every FIFO payload
//     is checksummed at push and verified at pop, so a corrupted value
//     cannot cross a link unnoticed;
//   * with detection off, some bit-flip trials become SDC and some jams
//     become hangs — the baseline the sidecars are judged against;
//   * recovery latency stays bounded by the hang budget (Eq. 4 interval
//     model x budget factor).
#include <cstdio>
#include <vector>

#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "fault/campaign.hpp"

int main() {
  using namespace dfc;

  struct Run {
    const char* label;
    core::NetworkSpec spec;
    std::size_t trials;
    bool detection;
    core::BuildOptions build;
    std::vector<std::size_t> cut;
  };
  std::vector<Run> runs;
  runs.push_back({"usps+detect", core::make_usps_spec(), 48, true, {}, {}});
  runs.push_back({"usps-detect", core::make_usps_spec(), 48, false, {}, {}});
  runs.push_back({"cifar+detect", core::make_cifar_spec(), 24, true, {}, {}});
  // Partitioned USPS on two boards: every board's FIFOs, the link ingress
  // FIFOs (fpga1.L<i>.xfpga<p>) included, join the injectable sites, so the
  // campaign also attacks words in board crossings.
  core::BuildOptions twofpga;
  twofpga.link = core::LinkModel{40, 4};
  runs.push_back({"usps-2fpga+detect", core::make_usps_spec(), 32, true, twofpga, {0, 0, 1, 1}});

  AsciiTable t({"campaign", "trials", "masked", "det+rec", "sdc", "hang", "sdc rate",
                "mean rec (cy)", "max rec (cy)"});
  CsvWriter csv("fault_campaign.csv",
                {"campaign", "design", "detection", "trials", "sites", "fault_free_cycles",
                 "hang_budget", "masked", "detected_recovered", "sdc", "hang", "sdc_rate",
                 "mean_recovery_cycles", "max_recovery_cycles"});

  std::vector<fault::CampaignResult> results;
  for (const Run& run : runs) {
    fault::CampaignConfig config;
    config.trials = run.trials;
    config.seed = 1;
    config.batch = 4;
    config.detection = run.detection;
    config.build = run.build;
    config.cut = run.cut;
    fault::CampaignResult r = fault::run_campaign(run.spec, config);

    std::printf("=== %s: %zu trials over %zu sites (fault-free %llu cycles) ===\n%s%s\n\n",
                run.label, r.trials.size(), r.sites.size(),
                static_cast<unsigned long long>(r.fault_free_cycles),
                r.summary_table().c_str(), r.classification_line().c_str());

    t.add_row({run.label, std::to_string(r.trials.size()), std::to_string(r.masked),
               std::to_string(r.detected_recovered), std::to_string(r.sdc),
               std::to_string(r.hang), fmt_percent(r.sdc_rate()),
               fmt_fixed(r.mean_recovery_latency_cycles(), 0),
               std::to_string(r.max_recovery_latency_cycles())});
    csv.row_values(run.label, r.design, run.detection ? 1 : 0, r.trials.size(),
                   r.sites.size(), r.fault_free_cycles, r.hang_budget, r.masked,
                   r.detected_recovered, r.sdc, r.hang, r.sdc_rate(),
                   r.mean_recovery_latency_cycles(), r.max_recovery_latency_cycles());
    results.push_back(std::move(r));
  }
  csv.flush();
  std::printf("%s\n", t.render().c_str());

  // Shape checks.
  const fault::CampaignResult& usps_det = results[0];
  const fault::CampaignResult& usps_raw = results[1];
  const fault::CampaignResult& cifar_det = results[2];
  const fault::CampaignResult& twofpga_det = results[3];
  bool twofpga_link_sites = false;
  for (const auto& site : twofpga_det.sites) {
    twofpga_link_sites = twofpga_link_sites || site.find("xfpga") != std::string::npos;
  }
  std::printf("Shape checks:\n");
  std::printf("  zero SDC with detection (usps): %s (%zu trials)\n",
              usps_det.sdc == 0 ? "yes" : "NO", usps_det.trials.size());
  std::printf("  zero SDC with detection (cifar): %s (%zu trials)\n",
              cifar_det.sdc == 0 ? "yes" : "NO", cifar_det.trials.size());
  std::printf("  zero SDC with detection (usps 2-FPGA): %s (%zu trials)\n",
              twofpga_det.sdc == 0 ? "yes" : "NO", twofpga_det.trials.size());
  std::printf("  partitioned campaign attacks link FIFOs: %s (%zu sites)\n",
              twofpga_link_sites ? "yes" : "NO", twofpga_det.sites.size());
  std::printf("  detection-off baseline shows SDC or hangs (usps): %s (sdc %zu, hang %zu)\n",
              usps_raw.sdc + usps_raw.hang > 0 ? "yes" : "NO", usps_raw.sdc, usps_raw.hang);
  const bool bounded =
      usps_det.max_recovery_latency_cycles() <= usps_det.hang_budget &&
      cifar_det.max_recovery_latency_cycles() <= cifar_det.hang_budget;
  std::printf("  recovery latency bounded by the hang budget: %s (usps %llu <= %llu, "
              "cifar %llu <= %llu)\n",
              bounded ? "yes" : "NO",
              static_cast<unsigned long long>(usps_det.max_recovery_latency_cycles()),
              static_cast<unsigned long long>(usps_det.hang_budget),
              static_cast<unsigned long long>(cifar_det.max_recovery_latency_cycles()),
              static_cast<unsigned long long>(cifar_det.hang_budget));

  if (std::FILE* json = std::fopen("BENCH_fault.json", "w")) {
    std::fprintf(json, "{\n  \"campaigns\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(json,
                   "    {\"label\": \"%s\", \"design\": \"%s\", \"detection\": %s,\n"
                   "     \"trials\": %zu, \"sites\": %zu, \"masked\": %zu,\n"
                   "     \"detected_recovered\": %zu, \"sdc\": %zu, \"hang\": %zu,\n"
                   "     \"fault_free_cycles\": %llu}%s\n",
                   runs[i].label, r.design.c_str(),
                   r.config.detection ? "true" : "false", r.trials.size(), r.sites.size(),
                   r.masked, r.detected_recovered, r.sdc, r.hang,
                   static_cast<unsigned long long>(r.fault_free_cycles),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n  \"detected_sdc_total\": %zu,\n"
                 "  \"twofpga_link_sites\": %s\n}\n",
                 usps_det.sdc + cifar_det.sdc + twofpga_det.sdc,
                 twofpga_link_sites ? "true" : "false");
    std::fclose(json);
  } else {
    std::fprintf(stderr, "cannot open BENCH_fault.json\n");
    return 1;
  }

  return (usps_det.sdc == 0 && cifar_det.sdc == 0 && twofpga_det.sdc == 0 && bounded &&
          twofpga_link_sites)
             ? 0
             : 1;
}
