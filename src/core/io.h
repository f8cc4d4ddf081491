// Dataset file I/O.
//
// Supports the vector-benchmark formats the paper's datasets ship in —
// `.fvecs` (SIFT/Deep1b: per vector an int32 dimension then float32
// values) and `.bvecs` (BigANN/SIFT1b: int32 dimension then uint8 values)
// — plus headerless row-major float32 ("raw", the format seismic archives
// are typically exported to).
//
// All readers validate structure and return std::nullopt on malformed
// input; they never abort on bad files.

#ifndef SOFA_CORE_IO_H_
#define SOFA_CORE_IO_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <string>

#include "core/dataset.h"

namespace sofa {
namespace io {

/// Writes `.fvecs`: [int32 dim | dim × float32] per series.
bool WriteFvecs(const Dataset& data, const std::string& path);

/// Reads at most `max_count` vectors from an `.fvecs` file. All vectors
/// must share one dimension.
std::optional<Dataset> ReadFvecs(
    const std::string& path,
    std::size_t max_count = std::numeric_limits<std::size_t>::max());

/// Writes `.bvecs`: [int32 dim | dim × uint8]; values are clamped to
/// [0, 255] and rounded (lossy — intended for descriptor-style data).
bool WriteBvecs(const Dataset& data, const std::string& path);

/// Reads at most `max_count` vectors from a `.bvecs` file.
std::optional<Dataset> ReadBvecs(
    const std::string& path,
    std::size_t max_count = std::numeric_limits<std::size_t>::max());

/// Writes headerless row-major float32.
bool WriteRawF32(const Dataset& data, const std::string& path);

/// Reads headerless row-major float32 of known series length; the file
/// size must be a multiple of length·4 bytes.
std::optional<Dataset> ReadRawF32(
    const std::string& path, std::size_t length,
    std::size_t max_count = std::numeric_limits<std::size_t>::max());

/// Reads a collection file by its extension: `.fvecs`, `.bvecs`, or else
/// raw float32 of series length `raw_length` (nullopt when it is 0).
std::optional<Dataset> ReadDataFile(const std::string& path,
                                    std::size_t raw_length);

}  // namespace io
}  // namespace sofa

#endif  // SOFA_CORE_IO_H_
