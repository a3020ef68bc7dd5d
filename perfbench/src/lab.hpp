// The lab workloads (lab_affinity, lab_networks).
#pragma once

#include <string>

#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs one lab workload; `spans` is on only in the traced run.
result run_lab(const options& opt, const lab_profile& prof, span_log& spans);

/// The set-up probe's child process: builds the engine's registry,
/// resolves the workload's parameters and reports with signal_ready().
/// Returns the exit code.
int lab_ready(const std::string& workload);

}  // namespace perfbench
