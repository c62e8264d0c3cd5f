#include "text/utf8.h"

namespace tendax {

namespace {
constexpr uint32_t kReplacement = 0xFFFD;
}

void AppendUtf8Multibyte(std::string* out, uint32_t cp) {
  if (cp <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0x10FFFF) {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    AppendUtf8(out, kReplacement);
  }
}

std::string EncodeUtf8(const std::vector<uint32_t>& cps) {
  std::string out;
  out.reserve(cps.size());
  for (uint32_t cp : cps) AppendUtf8(&out, cp);
  return out;
}

std::vector<uint32_t> DecodeUtf8(const std::string& bytes) {
  std::vector<uint32_t> out;
  out.reserve(bytes.size());
  size_t i = 0;
  const size_t n = bytes.size();
  while (i < n) {
    unsigned char b0 = static_cast<unsigned char>(bytes[i]);
    uint32_t cp;
    size_t len;
    if (b0 < 0x80) {
      cp = b0;
      len = 1;
    } else if ((b0 & 0xE0) == 0xC0) {
      cp = b0 & 0x1F;
      len = 2;
    } else if ((b0 & 0xF0) == 0xE0) {
      cp = b0 & 0x0F;
      len = 3;
    } else if ((b0 & 0xF8) == 0xF0) {
      cp = b0 & 0x07;
      len = 4;
    } else {
      out.push_back(kReplacement);
      ++i;
      continue;
    }
    if (i + len > n) {
      out.push_back(kReplacement);
      break;
    }
    bool valid = true;
    for (size_t k = 1; k < len; ++k) {
      unsigned char bk = static_cast<unsigned char>(bytes[i + k]);
      if ((bk & 0xC0) != 0x80) {
        valid = false;
        break;
      }
      cp = (cp << 6) | (bk & 0x3F);
    }
    if (!valid || (len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) ||
        (len == 4 && cp < 0x10000) || cp > 0x10FFFF) {
      out.push_back(kReplacement);
      ++i;
      continue;
    }
    out.push_back(cp);
    i += len;
  }
  return out;
}

}  // namespace tendax
