/**
 * @file
 * The workloads (README.md gives each one's inputs and reason). Each
 * one builds its inputs from opts.seed, sets up kSetupRepeats times,
 * measures for opts.seconds, checks its outputs bitwise against an
 * independent reference, and fills `report`.
 */

#ifndef SNSBENCH_WORKLOADS_HH
#define SNSBENCH_WORKLOADS_HH

#include "fixtures.hh"
#include "report.hh"

namespace snsbench {

/** Unique random chain designs, no cache, fp64 or int8 tier. */
void runDseUnique(const RunOptions &opts, Report &report,
                  sns::core::Precision precision);

/** Passes over the BOOM Table-10 space with a shared path cache. */
void runDseBoom(const RunOptions &opts, Report &report);

/** Open-loop PREDICT/UPDATE mix through a router and two servers. */
void runServeMixed(const RunOptions &opts, Report &report);

/** Training to completion for accuracy, then worlds 1/2/4 timed. */
void runTrain(const RunOptions &opts, Report &report);

} // namespace snsbench

#endif // SNSBENCH_WORKLOADS_HH
