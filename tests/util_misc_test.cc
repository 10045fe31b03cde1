#include <atomic>
#include <cstdio>
#include <fstream>
#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace alphaevolve {
namespace {

TEST(CheckTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(AE_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithLocation) {
  try {
    AE_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ctx 42"), std::string::npos);
    EXPECT_NE(what.find("util_misc_test.cc"), std::string::npos);
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.WaitAll();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.ParallelFor(1000, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(CsvTest, WritesHeaderAndRowsWithEscaping) {
  const std::string path = ::testing::TempDir() + "/csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.WriteRow(std::vector<std::string>{"plain", "with,comma"});
    w.WriteRow(std::vector<std::string>{"quote\"inside", "x"});
    w.WriteRow(std::vector<double>{1.5, -2.25});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"with,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"quote\"\"inside\",x");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,-2.25");
}

TEST(CsvTest, WrongColumnCountThrows) {
  const std::string path = ::testing::TempDir() + "/csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.WriteRow(std::vector<std::string>{"only-one"}), CheckError);
}

TEST(TableTest, FormatsAlignedColumns) {
  TablePrinter t({"Alpha", "Sharpe ratio", "IC"});
  t.AddRow({"alpha_AE_D_0", TablePrinter::Num(21.323797),
            TablePrinter::Num(0.067358)});
  t.AddRow({"alpha_G_0", TablePrinter::Na(), TablePrinter::Num(-0.5)});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha_AE_D_0"), std::string::npos);
  EXPECT_NE(out.find("21.323797"), std::string::npos);
  EXPECT_NE(out.find("NA"), std::string::npos);
  EXPECT_NE(out.find("| Alpha"), std::string::npos);
}

TEST(TableTest, NumFormatsSixDecimals) {
  EXPECT_EQ(TablePrinter::Num(1.0), "1.000000");
  EXPECT_EQ(TablePrinter::Num(-0.1234567), "-0.123457");
  EXPECT_EQ(TablePrinter::Num(std::nan("")), "NA");
}

TEST(TableTest, RowArityEnforced) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"x"}), CheckError);
}

TEST(JsonWriterTest, NestedDocumentWithCommaPlacement) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").Value("alpha_0");
  w.Key("sharpe").Value(1.5);
  w.Key("count").Value(static_cast<int64_t>(42));
  w.Key("valid").Value(true);
  w.Key("scenarios").BeginArray().Value("crash").Value("bull").EndArray();
  w.Key("nested").BeginObject().Key("k").Value(2).EndObject();
  w.EndObject();
  EXPECT_EQ(w.TakeString(),
            "{\"name\":\"alpha_0\",\"sharpe\":1.5,\"count\":42,"
            "\"valid\":true,\"scenarios\":[\"crash\",\"bull\"],"
            "\"nested\":{\"k\":2}}");
}

TEST(JsonWriterTest, EscapesStringsAndMapsNonFiniteToNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value("a\"b\\c\nd\te");
  w.Value(std::nan(""));
  w.Value(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[\"a\\\"b\\\\c\\nd\\te\",null,null]");
}

TEST(JsonWriterTest, UnbalancedDocumentThrows) {
  JsonWriter w;
  w.BeginObject();
  EXPECT_THROW(w.TakeString(), CheckError);
  JsonWriter w2;
  EXPECT_THROW(w2.EndObject(), CheckError);
  JsonWriter w3;
  w3.BeginArray();
  EXPECT_THROW(w3.Key("k"), CheckError);  // keys only inside objects
  JsonWriter w4;
  w4.BeginObject();
  EXPECT_THROW(w4.Value(1.5), CheckError);  // object values need a Key
  JsonWriter w5;
  w5.Value(1);
  EXPECT_THROW(w5.Value(2), CheckError);  // one root value only
  JsonWriter w6;
  w6.BeginObject();
  w6.EndObject();
  EXPECT_THROW(w6.BeginObject(), CheckError);  // no second root document
}

}  // namespace
}  // namespace alphaevolve
