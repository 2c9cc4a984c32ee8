#include "bench_harness/runner.hpp"

#include <fstream>
#include <stdexcept>

#include "bench_harness/json_writer.hpp"

namespace unisamp::bench_harness {

ScenarioReport run_scenario(const Scenario& scenario, const RunOptions& opts) {
  if (opts.repeats < 1)
    throw std::invalid_argument("repeats must be at least 1");
  const std::uint64_t budget =
      opts.quick ? scenario.quick_items : scenario.full_items;

  ScenarioReport report;
  report.name = scenario.name;
  report.description = scenario.description;

  for (int i = 0; i < opts.warmup; ++i) scenario.run(budget, opts.seed);

  bool first = true;
  for (int i = 0; i < opts.repeats; ++i) {
    Stopwatch watch;
    const ScenarioResult result = scenario.run(budget, opts.seed);
    const double elapsed = watch.elapsed_ns();
    if (result.items == 0)
      throw std::runtime_error("scenario '" + scenario.name +
                               "' reported zero items");
    if (first) {
      report.items = result.items;
      report.checksum = result.checksum;
      first = false;
    } else if (result.items != report.items ||
               result.checksum != report.checksum) {
      // Same seed, different observable output: the scenario is
      // nondeterministic and its timings cannot be compared run-to-run.
      throw std::runtime_error("scenario '" + scenario.name +
                               "' is nondeterministic across repetitions");
    }
    report.samples_ns_per_op.push_back(elapsed /
                                       static_cast<double>(result.items));
  }

  report.ns_per_op = SampleStats::from(report.samples_ns_per_op);
  if (report.ns_per_op.median > 0.0)
    report.items_per_sec = 1e9 / report.ns_per_op.median;
  if (opts.log)
    std::fprintf(opts.log, "%-32s %12.1f ns/op  %14.0f items/s  (%llu items)\n",
                 report.name.c_str(), report.ns_per_op.median,
                 report.items_per_sec,
                 static_cast<unsigned long long>(report.items));
  return report;
}

std::vector<ScenarioReport> run_scenarios(const ScenarioRegistry& registry,
                                          const RunOptions& opts) {
  std::vector<ScenarioReport> reports;
  for (const Scenario* scenario : registry.match(opts.filter))
    reports.push_back(run_scenario(*scenario, opts));
  return reports;
}

std::string report_json(std::span<const ScenarioReport> reports,
                        const RunOptions& opts) {
  JsonWriter w;
  w.begin_object();
  w.member("schema", "unisamp-bench-v1");
  w.member("quick", opts.quick);
  w.member("warmup", opts.warmup);
  w.member("repeats", opts.repeats);
  w.member("seed", opts.seed);
  w.key("scenarios");
  w.begin_array();
  for (const ScenarioReport& r : reports) {
    w.begin_object();
    w.member("name", std::string_view(r.name));
    w.member("description", std::string_view(r.description));
    w.member("items", r.items);
    w.member("checksum", r.checksum);
    w.key("ns_per_op");
    w.begin_object();
    w.member("min", r.ns_per_op.min);
    w.member("max", r.ns_per_op.max);
    w.member("median", r.ns_per_op.median);
    w.member("mean", r.ns_per_op.mean);
    w.member("stddev", r.ns_per_op.stddev);
    w.end_object();
    w.member("items_per_sec", r.items_per_sec);
    w.key("samples_ns_per_op");
    w.begin_array();
    for (const double s : r.samples_ns_per_op) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_report_json(const std::string& path,
                       std::span<const ScenarioReport> reports,
                       const RunOptions& opts) {
  std::ofstream out(path);
  if (!out) return false;
  out << report_json(reports, opts) << '\n';
  out.close();  // flushes; a failed flush fails the stream
  return out.good();
}

}  // namespace unisamp::bench_harness
