#include "reference.h"

#include <algorithm>
#include <stdexcept>

namespace hostbench {
namespace {

using guardnn::Bytes;
using guardnn::i32;
using guardnn::i8;
using guardnn::u8;
using Kind = guardnn::accel::ForwardOp::Kind;

i8 requant(i32 acc, int shift) {
  const i32 shifted = shift > 0 ? acc >> shift : acc;
  return static_cast<i8>(std::min<i32>(127, std::max<i32>(-128, shifted)));
}

struct Fmap {
  int c = 0, h = 0, w = 0;
  std::vector<i8> v;
  i8 at(int ci, int y, int x) const {
    if (y < 0 || y >= h || x < 0 || x >= w) return 0;
    return v[(static_cast<std::size_t>(ci) * h + y) * w + x];
  }
};

const i8* signed_bytes(const Bytes& b) {
  return reinterpret_cast<const i8*>(b.data());
}

Fmap conv(const Fmap& in, const guardnn::host::FuncLayer& l) {
  Fmap out;
  out.c = l.out_c;
  out.h = (in.h + 2 * l.pad - l.kernel) / l.stride + 1;
  out.w = (in.w + 2 * l.pad - l.kernel) / l.stride + 1;
  const std::size_t wsize =
      static_cast<std::size_t>(l.out_c) * in.c * l.kernel * l.kernel;
  if (l.weights.size() != wsize || out.h <= 0 || out.w <= 0)
    throw std::invalid_argument("reference: bad conv layer");
  const i8* wt = signed_bytes(l.weights);
  out.v.resize(static_cast<std::size_t>(out.c) * out.h * out.w);
  std::size_t o = 0;
  for (int oc = 0; oc < out.c; ++oc)
    for (int y = 0; y < out.h; ++y)
      for (int x = 0; x < out.w; ++x, ++o) {
        i32 acc = 0;
        const i8* wk = wt + static_cast<std::size_t>(oc) * in.c * l.kernel * l.kernel;
        for (int ic = 0; ic < in.c; ++ic)
          for (int ky = 0; ky < l.kernel; ++ky)
            for (int kx = 0; kx < l.kernel; ++kx)
              acc += static_cast<i32>(*wk++) *
                     in.at(ic, y * l.stride + ky - l.pad, x * l.stride + kx - l.pad);
        out.v[o] = requant(acc, l.requant_shift);
      }
  return out;
}

Fmap maxpool(const Fmap& in, int k, int s) {
  Fmap out;
  out.c = in.c;
  out.h = (in.h - k) / s + 1;
  out.w = (in.w - k) / s + 1;
  if (k > in.h || k > in.w || out.h <= 0 || out.w <= 0)
    throw std::invalid_argument("reference: bad pool layer");
  out.v.resize(static_cast<std::size_t>(out.c) * out.h * out.w);
  std::size_t o = 0;
  for (int c = 0; c < out.c; ++c)
    for (int y = 0; y < out.h; ++y)
      for (int x = 0; x < out.w; ++x, ++o) {
        i8 best = -128;
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx)
            best = std::max(best, in.at(c, y * s + ky, x * s + kx));
        out.v[o] = best;
      }
  return out;
}

Fmap fc(const Fmap& in, const guardnn::host::FuncLayer& l) {
  const std::size_t n_in = in.v.size();
  if (l.weights.size() != static_cast<std::size_t>(l.out_c) * n_in)
    throw std::invalid_argument("reference: bad fc layer");
  const i8* wt = signed_bytes(l.weights);
  Fmap out;
  out.c = l.out_c;
  out.h = out.w = 1;
  out.v.resize(static_cast<std::size_t>(l.out_c));
  for (int o = 0; o < l.out_c; ++o) {
    i32 acc = 0;
    const i8* row = wt + static_cast<std::size_t>(o) * n_in;
    for (std::size_t i = 0; i < n_in; ++i)
      acc += static_cast<i32>(row[i]) * in.v[i];
    out.v[static_cast<std::size_t>(o)] = requant(acc, l.requant_shift);
  }
  return out;
}

}  // namespace

Bytes reference_forward(const guardnn::host::FuncNetwork& net,
                        guardnn::BytesView input) {
  if (net.bits != 8) throw std::invalid_argument("reference: int8 only");
  Fmap x;
  x.c = net.in_c;
  x.h = net.in_h;
  x.w = net.in_w;
  if (input.size() != static_cast<std::size_t>(x.c) * x.h * x.w)
    throw std::invalid_argument("reference: input size");
  x.v.assign(reinterpret_cast<const i8*>(input.data()),
             reinterpret_cast<const i8*>(input.data()) + input.size());
  for (const auto& layer : net.layers) {
    switch (layer.kind) {
      case Kind::kConv:
        x = conv(x, layer);
        break;
      case Kind::kRelu:
        for (i8& v : x.v) v = std::max<i8>(v, 0);
        break;
      case Kind::kMaxPool:
        x = maxpool(x, layer.kernel, layer.stride);
        break;
      case Kind::kFc:
        x = fc(x, layer);
        break;
      default:
        throw std::invalid_argument("reference: unsupported layer kind");
    }
  }
  const u8* p = reinterpret_cast<const u8*>(x.v.data());
  return Bytes(p, p + x.v.size());
}

}  // namespace hostbench
