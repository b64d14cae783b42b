#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cdbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < all_.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += JsonString(all_[i].name) + ": {\"value\": " + JsonNumber(all_[i].value) +
           ", \"unit\": " + JsonString(all_[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace cdbench
