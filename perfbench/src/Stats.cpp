//===- perfbench/src/Stats.cpp - Statistics and JSON output ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

namespace perfbench {

namespace {

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

} // namespace

JsonObject &JsonObject::num(const std::string &Key, double Value) {
  char Buf[40];
  if (std::isfinite(Value))
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "null");
  Members.emplace_back(Key, Buf);
  return *this;
}

JsonObject &JsonObject::str(const std::string &Key, const std::string &Value) {
  Members.emplace_back(Key, quote(Value));
  return *this;
}

JsonObject &JsonObject::flag(const std::string &Key, bool Value) {
  Members.emplace_back(Key, Value ? "true" : "false");
  return *this;
}

JsonObject &JsonObject::obj(const std::string &Key, const JsonObject &Value) {
  Members.emplace_back(Key, Value.render());
  return *this;
}

JsonObject &JsonObject::strList(const std::string &Key,
                                const std::vector<std::string> &Values) {
  std::string Out = "[";
  for (size_t I = 0; I < Values.size(); ++I)
    Out += (I ? ", " : "") + quote(Values[I]);
  Members.emplace_back(Key, Out + "]");
  return *this;
}

std::string JsonObject::render() const {
  std::string Out = "{";
  for (size_t I = 0; I < Members.size(); ++I)
    Out += (I ? ", " : "") + quote(Members[I].first) + ": " +
           Members[I].second;
  return Out + "}";
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = P / 100.0 * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50.0);
}

double mean(const std::vector<double> &Samples) {
  if (Samples.empty())
    return 0.0;
  double Sum = 0.0;
  for (double X : Samples)
    Sum += X;
  return Sum / static_cast<double>(Samples.size());
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : Values)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

CpuTicks cpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  Stat >> Cpu;
  CpuTicks Out;
  // user nice system idle iowait irq softirq steal ...
  for (int Field = 0; Field < 8; ++Field) {
    double Value = 0.0;
    if (!(Stat >> Value))
      break;
    Out.Total += Value;
    if (Field == 7)
      Out.Steal = Value;
  }
  return Out;
}

double stealShare(const CpuTicks &Before, const CpuTicks &After) {
  double Total = After.Total - Before.Total;
  return Total > 0.0 ? (After.Steal - Before.Steal) / Total : 0.0;
}

JsonObject describeSamples(const std::vector<double> &Ms) {
  JsonObject Out;
  Out.num("count", static_cast<double>(Ms.size()))
      .num("p50_ms", percentile(Ms, 50.0))
      .num("p99_ms", percentile(Ms, 99.0))
      .num("beyond_p99", std::floor(static_cast<double>(Ms.size()) * 0.01));
  return Out;
}

JsonObject describeSetup(const std::vector<double> &Seconds) {
  JsonObject Out;
  Out.num("count", static_cast<double>(Seconds.size()))
      .num("median_s", median(Seconds))
      .num("min_s", *std::min_element(Seconds.begin(), Seconds.end()))
      .num("max_s", *std::max_element(Seconds.begin(), Seconds.end()));
  return Out;
}

} // namespace perfbench
