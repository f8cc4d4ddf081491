#include "harness/workload.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "test_data.h"
#include "util/thread_pool.h"

namespace sofa {
namespace testing_harness {

MutationWorkload::MutationWorkload(std::uint64_t seed)
    : base(testing_data::Walk(kBase, kLength, seed)),
      inserts(testing_data::Walk(kSteps, kLength, seed + 1)) {}

void MutationWorkload::Apply(ingest::Compactor* compactor, std::size_t from,
                             std::size_t to) const {
  std::size_t i = InsertsBefore(from);
  std::size_t d = from / 5;
  for (std::size_t step = from; step < to; ++step) {
    if (IsDelete(step)) {
      const Status status = compactor->Delete(DeleteTarget(d++));
      ASSERT_TRUE(status == StatusCode::kOk ||
                  status == StatusCode::kAlreadyDeleted)
          << "delete at step " << step << " failed: " << status.ToString();
    } else {
      ASSERT_EQ(compactor->Insert(inserts.row(i++), kLength),
                StatusCode::kOk)
          << "insert at step " << step;
    }
  }
}

MutationWorkload::Oracle::Oracle(const MutationWorkload& w,
                                 std::size_t position, ThreadPool* pool)
    : combined_(kLength) {
  for (std::size_t i = 0; i < kBase; ++i) {
    combined_.Append(w.base.row(i));
  }
  const std::size_t applied_inserts = InsertsBefore(position);
  for (std::size_t i = 0; i < applied_inserts; ++i) {
    combined_.Append(w.inserts.row(i));
  }
  std::vector<std::uint32_t> deleted;
  for (std::size_t d = 0; d < position / 5; ++d) {
    deleted.push_back(DeleteTarget(d));
  }
  oracle_ = std::make_unique<ExactOracle>(
      combined_, deleted, TrainTestScheme(w.base, pool), pool);
}

std::shared_ptr<const shard::ShardedIndex> MutationWorkload::BuildSharded(
    ThreadPool* pool, bool enable_rowq) const {
  return BuildTestSharded(base, kShards, TrainTestScheme(base, pool), pool,
                          enable_rowq);
}

std::vector<unsigned char> ReadFileBytes(const std::string& path) {
  std::vector<unsigned char> bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return bytes;
  }
  unsigned char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(file);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

}  // namespace testing_harness
}  // namespace sofa
