// Differential tests for the parallel buffered ingest engine (data/ingest.h)
// against the streaming reference parser (CsvReader::ReadStringStream).
//
// The engine's contract is bit-identity: same dictionaries, same codes, same
// error messages — for every chunking and every thread count. The tests force
// chunk boundaries into every position of documents that exercise the scanner
// edge cases (quoted newlines, \r\n breaks, doubled quotes, blank lines,
// separators at chunk edges) and assert exact equality.

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/mmap_file.h"
#include "common/rng.h"
#include "data/csv.h"
#include "data/ingest.h"
#include "test_util.h"

namespace muds {
namespace {

// Asserts bit-identity: column names, dictionaries, and code vectors.
void ExpectIdentical(const Relation& got, const Relation& want,
                     const std::string& context) {
  ASSERT_EQ(got.NumColumns(), want.NumColumns()) << context;
  ASSERT_EQ(got.NumRows(), want.NumRows()) << context;
  EXPECT_EQ(got.ColumnNames(), want.ColumnNames()) << context;
  for (int c = 0; c < got.NumColumns(); ++c) {
    const Column& a = got.GetColumn(c);
    const Column& b = want.GetColumn(c);
    ASSERT_EQ(a.dictionary, b.dictionary) << context << " column " << c;
    ASSERT_EQ(a.codes, b.codes) << context << " column " << c;
  }
}

// Parses `text` with both engines under `options` and demands the same
// outcome: identical relations or identical error messages. The buffered
// parse is repeated for every chunk size in [1, text.size()] and for
// 1/2/8 threads at automatic chunking.
void ExpectParityAtAllChunkings(const std::string& text, CsvOptions options) {
  options.io = CsvIoMode::kStream;
  const Result<Relation> want = CsvReader::ReadString(text, options);

  options.io = CsvIoMode::kBuffered;
  std::vector<std::pair<int, size_t>> configs;  // (threads, chunk_bytes)
  for (size_t bytes = 1; bytes <= text.size(); ++bytes) {
    configs.emplace_back(2, bytes);
  }
  for (int threads : {1, 2, 8}) configs.emplace_back(threads, 0);
  for (const auto& [threads, bytes] : configs) {
    options.num_threads = threads;
    options.chunk_bytes = bytes;
    const Result<Relation> got = CsvReader::ReadString(text, options);
    const std::string context = "threads=" + std::to_string(threads) +
                                " chunk_bytes=" + std::to_string(bytes);
    ASSERT_EQ(got.ok(), want.ok())
        << context << " got: "
        << (got.ok() ? "ok" : got.status().ToString()) << " want: "
        << (want.ok() ? "ok" : want.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString()) << context;
    } else {
      ExpectIdentical(got.value(), want.value(), context);
    }
  }
}

TEST(IngestChunkBoundaryTest, QuotedNewlinesSpanningEverySplit) {
  ExpectParityAtAllChunkings(
      "A,B\n\"line one\nline two\",x\n\"a\r\nb\",\"c,d\"\nplain,\"\"\n", {});
}

TEST(IngestChunkBoundaryTest, DoubledQuotesAndMixedQuoting) {
  ExpectParityAtAllChunkings(
      "A,B\n\"he said \"\"hi\"\"\",y\n\"ab\"cd,\"\"\"\"\n\"\"x,tail\n", {});
}

TEST(IngestChunkBoundaryTest, BlankLinesAtChunkEdges) {
  ExpectParityAtAllChunkings("A,B\n\n1,2\n\n\n3,4\n\n", {});
}

TEST(IngestChunkBoundaryTest, CrLfBreaksAndTrailingRecordWithoutNewline) {
  ExpectParityAtAllChunkings("A,B\r\n1,2\r\n3,4\r\n5,6", {});
}

TEST(IngestChunkBoundaryTest, SeparatorsAtChunkEdges) {
  ExpectParityAtAllChunkings("A,B,C\n,,\na,,c\n,b,\n", {});
}

TEST(IngestChunkBoundaryTest, QuoteReopensAfterEmptyQuotedPrefix) {
  // "" leaves the field empty, so a following quote re-opens quoting; a
  // quote after content is literal. The engines must agree byte for byte.
  ExpectParityAtAllChunkings("A\n\"\"\"x\"\nab\"c\n\"\"\n", {});
}

TEST(IngestChunkBoundaryTest, NoHeaderFirstRecordDefinesSchema) {
  CsvOptions options;
  options.has_header = false;
  ExpectParityAtAllChunkings("1,2\n3,4\n\"5\n6\",7\n", options);
}

TEST(IngestChunkBoundaryTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  ExpectParityAtAllChunkings("A;B\n\"x;y\";2\n,;3\n", options);
}

TEST(IngestErrorParityTest, EmptyInputVariants) {
  ExpectParityAtAllChunkings("", {});
  ExpectParityAtAllChunkings("\n\n", {});
  CsvOptions no_header;
  no_header.has_header = false;
  ExpectParityAtAllChunkings("", no_header);
}

TEST(IngestErrorParityTest, UnterminatedQuoteInHeaderAndData) {
  ExpectParityAtAllChunkings("\"A,B\n1,2\n", {});
  ExpectParityAtAllChunkings("A,B\n1,\"2\n", {});
  ExpectParityAtAllChunkings("A,B\n1,2\n3,\"4", {});
}

TEST(IngestErrorParityTest, ArityMismatchReportsGlobalDataRow) {
  ExpectParityAtAllChunkings("A,B\n1,2\n3\n5,6\n", {});
  ExpectParityAtAllChunkings("A,B\n1,2,3\n", {});
  CsvOptions no_header;
  no_header.has_header = false;
  ExpectParityAtAllChunkings("1,2\n3,4,5\n", no_header);
}

TEST(IngestErrorParityTest, ErrorsBeyondMaxRowsCutAreIgnored) {
  // The streaming parser stops scanning at the cut, so a bad record past it
  // is never seen; the parallel engine must reproduce that.
  CsvOptions options;
  options.max_rows = 2;
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5\n", options);
  ExpectParityAtAllChunkings("A,B\n1,2\n3,4\n5,\"6\n", options);
  // At the boundary the stream parser does read (and reject) the record.
  options.max_rows = 1;
  ExpectParityAtAllChunkings("A,B\n1,2\n3\n", options);
  options.max_rows = 0;
  ExpectParityAtAllChunkings("A,B\n1,2\n", options);
}

TEST(IngestMaxRowsTest, PrefixCutsAcrossChunks) {
  CsvOptions options;
  for (int64_t cut : {0, 1, 2, 3, 4, 9}) {
    options.max_rows = cut;
    ExpectParityAtAllChunkings("A,B\n1,a\n2,b\n3,c\n4,d\n", options);
  }
}

TEST(IngestNullSemanticsTest, NullUnequalNumbersCellsInRowMajorOrder) {
  CsvOptions options;
  options.nulls = NullSemantics::kNullUnequal;
  // Empty null token: empty cells become unique values, numbered row-major
  // over kept rows — the numbering must not depend on the chunking.
  ExpectParityAtAllChunkings("A,B,C\n,x,\ny,,z\n,,\n", options);
  options.null_token = "NA";
  ExpectParityAtAllChunkings("A,B\nNA,1\n2,NA\nNA,NA\n", options);
  options.max_rows = 2;
  ExpectParityAtAllChunkings("A,B\nNA,1\n2,NA\nNA,NA\n", options);
}

TEST(IngestDeterminismTest, BitIdenticalAcrossThreadCounts) {
  // A larger input with repeated and unique values per column, parsed at
  // automatic chunking for several thread counts: the relation must be
  // bit-identical to the sequential reference every time.
  std::string text = "id,word,group\n";
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    text += std::to_string(i) + ",w" + std::to_string(rng.NextBelow(97)) +
            ",g" + std::to_string(rng.NextBelow(7)) + "\n";
  }
  CsvOptions options;
  options.io = CsvIoMode::kStream;
  const Result<Relation> want = CsvReader::ReadString(text, options);
  ASSERT_TRUE(want.ok());

  options.io = CsvIoMode::kBuffered;
  options.chunk_bytes = 512;  // Force many chunks even on this small input.
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    const Result<Relation> got = CsvReader::ReadString(text, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "threads=" + std::to_string(threads));
  }
}

TEST(IngestDirectApiTest, IngestCsvMatchesReaderDispatch) {
  const std::string text = "A,B\n1,2\n\"x\ny\",3\n";
  CsvOptions options;
  options.num_threads = 2;
  options.chunk_bytes = 4;
  const Result<Relation> direct = IngestCsv(text, options, "rel");
  const Result<Relation> reference =
      CsvReader::ReadStringStream(text, options, "rel");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(direct.value(), reference.value(), "direct");
  EXPECT_EQ(direct.value().name(), "rel");
}

TEST(IngestReadFileTest, BufferedFileReadMatchesStream) {
  const std::string path =
      ::testing::TempDir() + "/ingest_readfile_test.csv";
  const std::string text =
      "A,B\n\"multi\nline\",1\n2,\"q\"\"uote\"\n\nlast,row";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
    std::fclose(f);
  }
  CsvOptions options;
  options.io = CsvIoMode::kStream;
  const Result<Relation> want = CsvReader::ReadFile(path, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  options.io = CsvIoMode::kBuffered;
  for (int threads : {1, 2, 8}) {
    options.num_threads = threads;
    options.chunk_bytes = 8;
    const Result<Relation> got = CsvReader::ReadFile(path, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "file threads=" + std::to_string(threads));
  }
  std::remove(path.c_str());
}

TEST(IngestReadFileTest, MissingFileIsIoError) {
  const Result<Relation> got =
      CsvReader::ReadFile("/nonexistent/ingest_test.csv");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
}

TEST(MappedFileTest, EmptyFileYieldsUnmappedEmptyView) {
  // mmap(len=0) is invalid, so a size-0 file opens as "not mapped"; view()
  // must hand back an empty view instead of wrapping a null pointer.
  const std::string path = ::testing::TempDir() + "/mapped_file_empty";
  { std::ofstream touch(path, std::ios::binary | std::ios::trunc); }
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_FALSE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().size(), 0u);
  EXPECT_TRUE(mapped.value().view().empty());
  // Advice on an unmapped file must be a harmless no-op.
  mapped.value().AdviseSequential();
  std::remove(path.c_str());
}

TEST(MappedFileTest, MapsFileContentsReadOnly) {
  const std::string path = ::testing::TempDir() + "/mapped_file_contents";
  const std::string payload = "hello, mapped world";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(payload.c_str(), f);
    std::fclose(f);
  }
  Result<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().view(), payload);
  // Advice is best-effort; exercising it must not disturb the mapping.
  mapped.value().AdviseSequential();
  EXPECT_EQ(mapped.value().view(), payload);
  EXPECT_FALSE(
      MappedFile::Open(::testing::TempDir() + "/mapped_file_missing").ok());
  std::remove(path.c_str());
}

TEST(CsvMmapTest, MmapIngestMatchesBufferedIngest) {
  const Relation original = RandomRelation(9, 4, 400, 10);
  const std::string path = ::testing::TempDir() + "/csv_mmap_test.csv";
  ASSERT_TRUE(CsvWriter::WriteFile(original, path).ok());

  CsvOptions buffered;
  buffered.mmap_min_bytes = static_cast<size_t>(-1);  // Never map.
  CsvOptions mapped;
  mapped.mmap_min_bytes = 0;  // Always map.
  Result<Relation> a = CsvReader::ReadFile(path, buffered);
  Result<Relation> b = CsvReader::ReadFile(path, mapped);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectIdentical(b.value(), a.value(), "mmap");
  std::remove(path.c_str());
}

// Property test: random documents with hostile cell content, random
// chunkings, random thread counts — always equal to the reference.
std::string RandomCell(Rng* rng) {
  static const char kAlphabet[] = "ab,\"\n\r;x ";
  std::string cell;
  const int length = static_cast<int>(rng->NextBelow(8));
  for (int i = 0; i < length; ++i) {
    cell += kAlphabet[rng->NextBelow(sizeof(kAlphabet) - 1)];
  }
  return cell;
}

class IngestPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IngestPropertyTest, RandomDocumentsParseIdentically) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  const int cols = 1 + static_cast<int>(rng.NextBelow(4));
  const int rows = static_cast<int>(rng.NextBelow(30));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) names.push_back("h" + std::to_string(c));
  std::vector<std::vector<std::string>> data;
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < cols; ++c) row.push_back(RandomCell(&rng));
    data.push_back(std::move(row));
  }
  const std::string text =
      CsvWriter::ToString(Relation::FromRows(names, data));

  CsvOptions options;
  options.io = CsvIoMode::kStream;
  const Result<Relation> want = CsvReader::ReadString(text, options);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  options.io = CsvIoMode::kBuffered;
  for (int trial = 0; trial < 8; ++trial) {
    options.num_threads = 1 + static_cast<int>(rng.NextBelow(8));
    options.chunk_bytes = 1 + rng.NextBelow(text.size() + 1);
    const Result<Relation> got = CsvReader::ReadString(text, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(got.value(), want.value(),
                    "threads=" + std::to_string(options.num_threads) +
                        " chunk_bytes=" +
                        std::to_string(options.chunk_bytes));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestPropertyTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace muds
