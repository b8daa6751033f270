#include "arfs/props/report.hpp"

#include <sstream>

namespace arfs::props {

TraceReport check_trace(const trace::SysTrace& s,
                        const core::ReconfigSpec& spec) {
  TraceReport report;
  // A first walk counts the reconfigurations (and finds one left open), so
  // the verdicts are sized once; the second checks each as it closes.
  std::size_t count = 0;
  report.incomplete_at_end =
      trace::for_each_reconfig(
          s, [&count](const trace::Reconfiguration&) { ++count; })
          .has_value();
  report.verdicts.reserve(count);
  (void)trace::for_each_reconfig(s, [&](const trace::Reconfiguration& r) {
    ReconfigVerdict v = check_all(s, r, spec);
    ++report.reconfig_count;
    if (!v.sp1.holds) ++report.sp1_failures;
    if (!v.sp2.holds) ++report.sp2_failures;
    if (!v.sp3.holds) ++report.sp3_failures;
    if (!v.sp4.holds) ++report.sp4_failures;
    report.verdicts.push_back(std::move(v));
  });
  return report;
}

std::string render(const TraceReport& report) {
  std::ostringstream os;
  os << "reconfigurations: " << report.reconfig_count
     << "  SP1 fail: " << report.sp1_failures
     << "  SP2 fail: " << report.sp2_failures
     << "  SP3 fail: " << report.sp3_failures
     << "  SP4 fail: " << report.sp4_failures
     << (report.incomplete_at_end ? "  (trace ends mid-reconfiguration)"
                                  : "");
  for (const ReconfigVerdict& v : report.verdicts) {
    if (v.all_hold()) continue;
    os << "\n  R[" << v.reconfig.start_c << ".." << v.reconfig.end_c << "] "
       << v.reconfig.from.value() << "->" << v.reconfig.to.value() << ":";
    for (const PropertyResult* p : {&v.sp1, &v.sp2, &v.sp3, &v.sp4}) {
      if (!p->holds) os << "\n    " << p->detail;
    }
  }
  return os.str();
}

}  // namespace arfs::props
