#include "bench.h"

#include <cstdlib>
#include <fstream>

namespace keybench {

Vocabulary::Vocabulary(uint64_t seed, size_t words) : zipf_(words, 1.0) {
  Rng rng(seed ^ 0x766F636162ULL);
  words_.reserve(words);
  while (words_.size() < words) {
    std::string w;
    const size_t len = 2 + rng.Uniform(9);
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
    words_.push_back(std::move(w));
  }
}

std::string Vocabulary::Text(Rng& rng, size_t chars) const {
  std::string out;
  out.reserve(chars + 16);
  size_t in_sentence = 0;
  while (out.size() < chars) {
    out += Word(rng);
    if (++in_sentence >= 8 + rng.Uniform(10)) {
      out += rng.Chance(0.15) ? ".\n" : ". ";
      in_sentence = 0;
    } else {
      out += ' ';
    }
  }
  out.resize(chars);
  return out;
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

std::string FirstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      size_t b = line.find_first_not_of(" \t", colon + 1);
      return b == std::string::npos ? "" : line.substr(b);
    }
  }
  return "unknown";
}

double PeakRssMiB() {
  std::string hwm = FirstLineWith("/proc/self/status", "VmHWM");
  return std::atof(hwm.c_str()) / 1024.0;  // "123456 kB"
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace keybench
