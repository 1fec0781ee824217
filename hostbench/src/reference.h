// Plaintext int8 reference for every output the benchmark checks.
//
// Written apart from src/functional on purpose: it shares no code with the
// program under test, only the published operator rules — zero-padded
// convolution, ReLU, max pooling without padding, and a fully connected layer
// over the flattened CHW tensor, each accumulating in 32 bits and then
// requantizing by an arithmetic right shift clamped to the int8 range.
#pragma once

#include "host/scheduler.h"

namespace hostbench {

/// Runs `net` on `input` (CHW int8 bytes) and returns the output bytes.
/// Supports the layer kinds the benchmark's models use (conv, relu,
/// max-pool, fc); anything else throws std::invalid_argument.
guardnn::Bytes reference_forward(const guardnn::host::FuncNetwork& net,
                                 guardnn::BytesView input);

}  // namespace hostbench
