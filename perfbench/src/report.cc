#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void RunReport::Miss(const std::string& why) {
  ++failed;
  if (notes.size() < 10) notes.push_back("miss: " + why);
}

void RunReport::Wrong(const std::string& why) {
  correct = false;
  if (notes.size() < 20) notes.push_back("wrong: " + why);
}

void RunReport::Config(const std::string& key, const std::string& value) {
  config.emplace_back(key, JsonString(value));
}

void RunReport::Config(const std::string& key, double value) {
  config.emplace_back(key, JsonNumber(value));
}

std::string DescribeSample(const std::vector<double>& v, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p99 %.4g %s (n=%zu%s)",
                Quantile(v, 0.5), unit, Quantile(v, 0.99), unit, v.size(),
                v.size() >= 1000 ? "" : ", p99 has <10 samples beyond it");
  return buf;
}

std::string ListValues(const char* label, const std::vector<double>& v) {
  std::string out = label;
  out += ":";
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g", x);
    out += buf;
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
