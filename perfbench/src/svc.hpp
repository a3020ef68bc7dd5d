// The service workloads (svc_read, svc_write).
#pragma once

#include <cstdint>

#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs one service workload; `spans` is on only in the traced run.
result run_service(const options& opt, const svc_profile& prof, span_log& spans);

/// The set-up probe's child process: one set-up of the workload's service,
/// reported with signal_ready(), then teardown. Returns the exit code.
int service_ready(const svc_profile& prof, const std::string& work_dir);

}  // namespace perfbench
