#include "calib.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>

#include "util.h"

namespace perfbench {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

volatile uint64_t g_sink = 0;

}  // namespace

uint64_t RunReferenceKernel() {
  static const std::array<uint32_t, 256> kCrc = MakeCrcTable();
  InputRng rng(0x5eedf00d);
  uint64_t sum = 0;

  std::map<uint32_t, std::string> map;
  for (int i = 0; i < 1500; ++i) {
    std::string payload(16 + rng.Uniform(48), char('a' + i % 26));
    map[uint32_t(rng.Uniform(4096))] = std::move(payload);
  }
  for (int i = 0; i < 12000; ++i) {
    auto it = map.lower_bound(uint32_t(rng.Uniform(4096)));
    if (it != map.end()) sum += it->second.size() + uint8_t(it->second[0]);
  }

  std::vector<uint64_t> keys(6000);
  for (auto& k : keys) k = rng.Next();
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2] >> 32;

  std::vector<uint8_t> buf(24 * 1024);
  for (auto& b : buf) b = uint8_t(rng.Next());
  uint32_t crc = 0xffffffffu;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint8_t b : buf) crc = kCrc[(crc ^ b) & 0xff] ^ (crc >> 8);
  }
  sum += crc;
  g_sink = g_sink + sum;
  return sum;
}

void HostTimer::Begin() {
  chunk_start_ = HostNow();
  open_ = true;
}

void HostTimer::Tick() {
  if (open_ && HostNow() - chunk_start_ >= kSliceS) {
    CloseChunk();
    Begin();
  }
}

void HostTimer::End() {
  if (open_) CloseChunk();
  open_ = false;
}

void HostTimer::CloseChunk() {
  const double work = HostNow() - chunk_start_;
  const double t0 = HostNow();
  RunReferenceKernel();
  const double kernel = HostNow() - t0;
  raw_s_ += work;
  calibrated_s_ += work / kernel * kNominalKernelS;
  kernel_s_.push_back(kernel);
}

double HostTimer::median_kernel_s() const {
  return kernel_s_.empty() ? 0.0 : Median(kernel_s_);
}

}  // namespace perfbench
