#include "core/builtin_codecs.h"

#include <mutex>

#include "bwt/bwt_codec.h"
#include "compress/registry.h"
#include "core/primacy_codec.h"
#include "deflate/deflate.h"
#include "fpc/fpc_codec.h"
#include "fpzip_like/fpz_codec.h"
#include "lzfast/lzfast.h"

namespace primacy {

void RegisterBuiltinCodecs() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& registry = CodecRegistry::Global();
    registry.Register("deflate", [] { return std::make_unique<DeflateCodec>(); });
    registry.Register("deflate-fast", [] {
      return std::make_unique<DeflateCodec>(LzParams::Fast(), "deflate-fast");
    });
    registry.Register("lzfast", [] { return std::make_unique<LzFastCodec>(); });
    registry.Register("bwt", [] { return std::make_unique<BwtCodec>(); });
    registry.Register("fpc", [] { return std::make_unique<FpcCodec>(); });
    registry.Register("fpz", [] { return std::make_unique<FpzCodec>(); });
    registry.Register("primacy",
                      [] { return std::make_unique<PrimacyCodec>(); });
  });
}

}  // namespace primacy
