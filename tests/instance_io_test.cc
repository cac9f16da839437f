#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "instances/random_instance.h"
#include "instances/tpcc.h"
#include "workload/instance_io.h"

namespace vpart {
namespace {

void ExpectInstancesEqual(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.num_transactions(), b.num_transactions());
  for (int q = 0; q < a.num_queries(); ++q) {
    EXPECT_EQ(a.is_write(q), b.is_write(q));
    EXPECT_DOUBLE_EQ(a.workload().query(q).frequency,
                     b.workload().query(q).frequency);
    for (int attr = 0; attr < a.num_attributes(); ++attr) {
      ASSERT_EQ(a.alpha(attr, q), b.alpha(attr, q)) << attr << " " << q;
      ASSERT_EQ(a.beta(attr, q), b.beta(attr, q)) << attr << " " << q;
      ASSERT_DOUBLE_EQ(a.W(attr, q), b.W(attr, q)) << attr << " " << q;
    }
  }
  for (int t = 0; t < a.num_transactions(); ++t) {
    EXPECT_EQ(a.ReadSetOfTransaction(t), b.ReadSetOfTransaction(t));
    EXPECT_EQ(a.TouchedAttributesOfTransaction(t),
              b.TouchedAttributesOfTransaction(t));
  }
}

TEST(InstanceIoTest, RoundTripTpcc) {
  Instance original = MakeTpccInstance();
  std::string text = WriteInstanceText(original);
  auto parsed = ParseInstanceText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name(), "tpcc-v5");
  ExpectInstancesEqual(original, parsed.value());
}

TEST(InstanceIoTest, RoundTripRandom) {
  RandomInstanceParams params;
  params.num_transactions = 10;
  params.num_tables = 5;
  params.update_percent = 30;
  params.seed = 5;
  Instance original = MakeRandomInstance(params);
  auto parsed = ParseInstanceText(WriteInstanceText(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectInstancesEqual(original, parsed.value());
}

TEST(InstanceIoTest, ParsesCommentsAndBlankLines) {
  const std::string text = R"(# header comment
instance demo

table R
attr R x 4
# mid comment
txn T
query T q read 1
rows q R 2
ref q R.x
)";
  auto parsed = ParseInstanceText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->name(), "demo");
  EXPECT_EQ(parsed->num_attributes(), 1);
  EXPECT_DOUBLE_EQ(parsed->W(0, 0), 4 * 1 * 2);
}

TEST(InstanceIoTest, RejectsUnknownDirective) {
  auto parsed = ParseInstanceText("bogus line here\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(InstanceIoTest, RejectsUnknownTable) {
  auto parsed = ParseInstanceText("attr R x 4\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(InstanceIoTest, RejectsUnknownQueryInRows) {
  const std::string text = "instance d\ntable R\nattr R x 4\ntxn T\nrows q R 1\n";
  EXPECT_FALSE(ParseInstanceText(text).ok());
}

TEST(InstanceIoTest, RejectsBadQueryKind) {
  const std::string text =
      "instance d\ntable R\nattr R x 4\ntxn T\nquery T q scan 1\n";
  EXPECT_FALSE(ParseInstanceText(text).ok());
}

TEST(InstanceIoTest, RejectsDuplicateQueryName) {
  const std::string text =
      "instance d\ntable R\nattr R x 4\ntxn T\n"
      "query T q read 1\nrows q R 1\nquery T q read 1\n";
  EXPECT_FALSE(ParseInstanceText(text).ok());
}

// NaN and inf pass a `<= 0` check, and 1e308 rows are finite but overflow
// W = width x frequency x rows to inf: each would price every layout at
// NaN or inf, so the instance is rejected when it is built.
TEST(InstanceIoTest, RejectsNonFiniteNumbers) {
  const std::string head = "instance d\ntable R\n";
  const std::string txn = "txn T\nquery T q read ";
  for (const std::string& text :
       {head + "attr R x nan\n" + txn + "1\nrows q R 1\nref q R.x\n",
        head + "attr R x inf\n" + txn + "1\nrows q R 1\nref q R.x\n",
        head + "attr R x 4\n" + txn + "nan\nrows q R 1\nref q R.x\n",
        head + "attr R x 4\n" + txn + "1\nrows q R 1e308\nref q R.x\n"}) {
    SCOPED_TRACE(text);
    StatusOr<Instance> parsed = ParseInstanceText(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(InstanceIoTest, FileRoundTrip) {
  Instance original = MakeTpccInstance();
  const std::string path = ::testing::TempDir() + "/tpcc_io_test.vpi";
  ASSERT_TRUE(WriteInstanceFile(original, path).ok());
  auto parsed = ReadInstanceFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ExpectInstancesEqual(original, parsed.value());
  std::remove(path.c_str());
}

TEST(InstanceIoTest, MissingFileReportsNotFound) {
  auto parsed = ReadInstanceFile("/nonexistent/path/foo.vpi");
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace vpart
