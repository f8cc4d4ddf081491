#include "core/io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace sofa {
namespace io {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) {
      std::fclose(f);
    }
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr OpenRead(const std::string& path) {
  return FilePtr(std::fopen(path.c_str(), "rb"));
}

FilePtr OpenWrite(const std::string& path) {
  return FilePtr(std::fopen(path.c_str(), "wb"));
}

}  // namespace

bool WriteFvecs(const Dataset& data, const std::string& path) {
  FilePtr file = OpenWrite(path);
  if (file == nullptr) {
    return false;
  }
  const std::int32_t dim = static_cast<std::int32_t>(data.length());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::fwrite(&dim, sizeof(dim), 1, file.get()) != 1 ||
        std::fwrite(data.row(i), sizeof(float), data.length(), file.get()) !=
            data.length()) {
      return false;
    }
  }
  return true;
}

std::optional<Dataset> ReadFvecs(const std::string& path,
                                 std::size_t max_count) {
  FilePtr file = OpenRead(path);
  if (file == nullptr) {
    return std::nullopt;
  }
  std::optional<Dataset> dataset;
  std::vector<float> row;
  while (dataset == std::nullopt || dataset->size() < max_count) {
    std::int32_t dim = 0;
    const std::size_t got = std::fread(&dim, sizeof(dim), 1, file.get());
    if (got == 0) {
      break;  // clean EOF
    }
    if (dim <= 0) {
      return std::nullopt;
    }
    if (dataset == std::nullopt) {
      dataset.emplace(static_cast<std::size_t>(dim));
      row.resize(static_cast<std::size_t>(dim));
    } else if (static_cast<std::size_t>(dim) != dataset->length()) {
      return std::nullopt;  // inconsistent dimensionality
    }
    if (std::fread(row.data(), sizeof(float), row.size(), file.get()) !=
        row.size()) {
      return std::nullopt;  // truncated vector
    }
    dataset->Append(row.data());
  }
  return dataset;
}

bool WriteBvecs(const Dataset& data, const std::string& path) {
  FilePtr file = OpenWrite(path);
  if (file == nullptr) {
    return false;
  }
  const std::int32_t dim = static_cast<std::int32_t>(data.length());
  std::vector<std::uint8_t> row(data.length());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float* values = data.row(i);
    for (std::size_t t = 0; t < data.length(); ++t) {
      row[t] = static_cast<std::uint8_t>(
          std::clamp(std::lround(values[t]), 0L, 255L));
    }
    if (std::fwrite(&dim, sizeof(dim), 1, file.get()) != 1 ||
        std::fwrite(row.data(), 1, row.size(), file.get()) != row.size()) {
      return false;
    }
  }
  return true;
}

std::optional<Dataset> ReadBvecs(const std::string& path,
                                 std::size_t max_count) {
  FilePtr file = OpenRead(path);
  if (file == nullptr) {
    return std::nullopt;
  }
  std::optional<Dataset> dataset;
  std::vector<std::uint8_t> bytes;
  std::vector<float> row;
  while (dataset == std::nullopt || dataset->size() < max_count) {
    std::int32_t dim = 0;
    const std::size_t got = std::fread(&dim, sizeof(dim), 1, file.get());
    if (got == 0) {
      break;
    }
    if (dim <= 0) {
      return std::nullopt;
    }
    if (dataset == std::nullopt) {
      dataset.emplace(static_cast<std::size_t>(dim));
      bytes.resize(static_cast<std::size_t>(dim));
      row.resize(static_cast<std::size_t>(dim));
    } else if (static_cast<std::size_t>(dim) != dataset->length()) {
      return std::nullopt;
    }
    if (std::fread(bytes.data(), 1, bytes.size(), file.get()) !=
        bytes.size()) {
      return std::nullopt;
    }
    for (std::size_t t = 0; t < bytes.size(); ++t) {
      row[t] = static_cast<float>(bytes[t]);
    }
    dataset->Append(row.data());
  }
  return dataset;
}

bool WriteRawF32(const Dataset& data, const std::string& path) {
  FilePtr file = OpenWrite(path);
  if (file == nullptr) {
    return false;
  }
  const std::size_t total = data.size() * data.length();
  return std::fwrite(data.data(), sizeof(float), total, file.get()) == total;
}

std::optional<Dataset> ReadRawF32(const std::string& path,
                                  std::size_t length,
                                  std::size_t max_count) {
  if (length == 0) {
    return std::nullopt;
  }
  FilePtr file = OpenRead(path);
  if (file == nullptr) {
    return std::nullopt;
  }
  Dataset dataset(length);
  std::vector<float> row(length);
  while (dataset.size() < max_count) {
    const std::size_t got =
        std::fread(row.data(), sizeof(float), length, file.get());
    if (got == 0) {
      break;
    }
    if (got != length) {
      return std::nullopt;  // trailing partial series
    }
    dataset.Append(row.data());
  }
  return dataset;
}

std::optional<Dataset> ReadDataFile(const std::string& path,
                                    std::size_t raw_length) {
  const auto has_suffix = [&path](const std::string& suffix) {
    return path.size() > suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (has_suffix(".bvecs")) {
    return ReadBvecs(path);
  }
  if (has_suffix(".fvecs")) {
    return ReadFvecs(path);
  }
  return ReadRawF32(path, raw_length);
}

}  // namespace io
}  // namespace sofa
