#ifndef TENDAX_TEXT_UTF8_H_
#define TENDAX_TEXT_UTF8_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace tendax {

/// Minimal UTF-8 codec. TeNDaX stores one database record per character, so
/// edit operations segment incoming text into code points first. Invalid
/// bytes decode as U+FFFD so editor input can never corrupt the store.

void AppendUtf8Multibyte(std::string* out, uint32_t cp);

/// Appends the UTF-8 encoding of `cp` to `out`. Inline for ASCII, which
/// dominates every whole-document walk.
inline void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp <= 0x7F) {
    out->push_back(static_cast<char>(cp));
  } else {
    AppendUtf8Multibyte(out, cp);
  }
}

/// Encodes a sequence of code points.
std::string EncodeUtf8(const std::vector<uint32_t>& cps);

/// Decodes UTF-8 bytes into code points (invalid sequences -> U+FFFD).
std::vector<uint32_t> DecodeUtf8(const std::string& bytes);

}  // namespace tendax

#endif  // TENDAX_TEXT_UTF8_H_
