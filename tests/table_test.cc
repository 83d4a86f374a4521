// Unit tests for src/table: Value, Column, Schema, Table, type inference,
// and the CSV reader.

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/table/column.h"
#include "src/table/csv.h"
#include "src/table/schema.h"
#include "src/table/table.h"
#include "src/table/type_inference.h"
#include "src/table/value.h"

namespace joinmi {
namespace {

// ----------------------------------------------------------------- Value --

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{3}).type(), DataType::kInt64);
  EXPECT_EQ(Value(3.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("abc").type(), DataType::kString);
  EXPECT_EQ(Value(int64_t{3}).int64(), 3);
  EXPECT_EQ(Value(3.5).dbl(), 3.5);
  EXPECT_EQ(Value("abc").str(), "abc");
}

TEST(ValueTest, AsDoubleWidensIntegers) {
  EXPECT_EQ(*Value(int64_t{3}).AsDouble(), 3.0);
  EXPECT_EQ(*Value(2.5).AsDouble(), 2.5);
  EXPECT_FALSE(Value("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
  EXPECT_NE(Value("3"), Value(int64_t{3}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_NE(Value(int64_t{3}).Hash(), Value(int64_t{4}).Hash());
  EXPECT_EQ(Value("k").Hash(), Value("k").Hash());
  EXPECT_NE(Value("k").Hash(), Value("l").Hash());
  // +0.0 and -0.0 compare equal and must hash equal.
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
}

TEST(ValueTest, Ordering) {
  EXPECT_LT(Value(int64_t{1}), Value(2.0));
  EXPECT_LT(Value(2.0), Value("a"));  // numbers before strings
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value::Null(), Value(int64_t{0}));  // null first
  EXPECT_FALSE(Value(int64_t{2}) < Value(int64_t{2}));
}

TEST(ValueTest, ToStringRoundTripsDoubles) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("s").ToString(), "s");
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value(0.5).ToString(), "0.5");
  EXPECT_EQ(Value(1.0 / 3.0).ToString(), Value(1.0 / 3.0).ToString());
}

// ---------------------------------------------------------------- Column --

TEST(ColumnTest, TypedConstructionAndAccess) {
  auto ints = Column::MakeInt64({1, 2, 3});
  EXPECT_EQ(ints->type(), DataType::kInt64);
  EXPECT_EQ(ints->size(), 3u);
  EXPECT_EQ(ints->null_count(), 0u);
  EXPECT_EQ(ints->Int64At(1), 2);
  EXPECT_EQ(ints->GetValue(2), Value(int64_t{3}));

  auto doubles = Column::MakeDouble({1.5, 2.5});
  EXPECT_EQ(doubles->DoubleAt(0), 1.5);
  EXPECT_EQ(*doubles->NumericAt(1), 2.5);

  auto strings = Column::MakeString({"a", "b"});
  EXPECT_EQ(strings->StringAt(1), "b");
  EXPECT_FALSE(strings->NumericAt(0).ok());
}

TEST(ColumnTest, ValidityMasksNulls) {
  auto col = Column::MakeInt64({1, 2, 3}, {true, false, true});
  EXPECT_EQ(col->null_count(), 1u);
  EXPECT_TRUE(col->IsValid(0));
  EXPECT_FALSE(col->IsValid(1));
  EXPECT_TRUE(col->GetValue(1).is_null());
  EXPECT_FALSE(col->NumericAt(1).ok());
}

TEST(ColumnTest, FromValuesInfersConsensusType) {
  auto ints = Column::FromValues({Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_EQ((*ints)->type(), DataType::kInt64);
  // Mixed int/double promotes to double.
  auto promoted = Column::FromValues({Value(int64_t{1}), Value(2.5)});
  EXPECT_EQ((*promoted)->type(), DataType::kDouble);
  EXPECT_EQ((*promoted)->DoubleAt(0), 1.0);
  // Mixed string/number fails.
  EXPECT_FALSE(Column::FromValues({Value("a"), Value(1.0)}).ok());
  // Nulls pass through.
  auto with_null = Column::FromValues({Value(int64_t{1}), Value::Null()});
  EXPECT_EQ((*with_null)->null_count(), 1u);
}

TEST(ColumnTest, TakeGathersAndNullFills) {
  auto col = Column::MakeString({"a", "b", "c"});
  auto taken = col->Take({2, 0, Column::kNullIndex, 2});
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ((*taken)->size(), 4u);
  EXPECT_EQ((*taken)->GetValue(0), Value("c"));
  EXPECT_EQ((*taken)->GetValue(1), Value("a"));
  EXPECT_TRUE((*taken)->GetValue(2).is_null());
  EXPECT_EQ((*taken)->GetValue(3), Value("c"));
  EXPECT_FALSE(col->Take({5}).ok());
}

TEST(ColumnTest, CountDistinctIgnoresNulls) {
  auto col = Column::MakeInt64({1, 2, 2, 3, 3}, {true, true, true, true, false});
  EXPECT_EQ(col->CountDistinct(), 3u);  // 1, 2, 3-valid-once
}

TEST(ColumnTest, ToValuesSkipsNulls) {
  auto col = Column::MakeDouble({1.0, 2.0, 3.0}, {true, false, true});
  const auto values = col->ToValues();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], Value(1.0));
  EXPECT_EQ(values[1], Value(3.0));
}

TEST(ColumnBuilderTest, AppendsAndTypeChecks) {
  ColumnBuilder builder(DataType::kInt64);
  ASSERT_TRUE(builder.Append(Value(int64_t{1})).ok());
  builder.AppendNull();
  EXPECT_FALSE(builder.Append(Value("x")).ok());
  auto col = builder.Finish();
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->size(), 2u);
  EXPECT_EQ((*col)->null_count(), 1u);
}

TEST(ColumnBuilderTest, DoubleBuilderAcceptsIntegers) {
  ColumnBuilder builder(DataType::kDouble);
  ASSERT_TRUE(builder.Append(Value(int64_t{4})).ok());
  auto col = builder.Finish();
  EXPECT_EQ((*col)->DoubleAt(0), 4.0);
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, FieldLookup) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(*schema.FieldIndex("b"), 1u);
  EXPECT_FALSE(schema.FieldIndex("c").ok());
  EXPECT_TRUE(schema.HasField("a"));
  EXPECT_FALSE(schema.HasField("z"));
}

TEST(SchemaTest, ValidateRejectsDuplicatesAndEmptyNames) {
  EXPECT_TRUE(Schema({{"a", DataType::kInt64}}).Validate().ok());
  EXPECT_FALSE(
      Schema({{"a", DataType::kInt64}, {"a", DataType::kDouble}}).Validate().ok());
  EXPECT_FALSE(Schema({{"", DataType::kInt64}}).Validate().ok());
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, MakeValidatesShape) {
  auto col = Column::MakeInt64({1, 2});
  auto ok = Table::Make(Schema({{"a", DataType::kInt64}}), {col});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->num_rows(), 2u);

  // Length mismatch.
  auto short_col = Column::MakeInt64({1});
  EXPECT_FALSE(Table::Make(Schema({{"a", DataType::kInt64},
                                   {"b", DataType::kInt64}}),
                           {col, short_col})
                   .ok());
  // Type mismatch.
  EXPECT_FALSE(Table::Make(Schema({{"a", DataType::kString}}), {col}).ok());
  // Count mismatch.
  EXPECT_FALSE(Table::Make(Schema({{"a", DataType::kInt64}}), {}).ok());
}

TEST(TableTest, FromColumnsAndLookup) {
  auto t = Table::FromColumns({{"k", Column::MakeString({"x", "y"})},
                               {"v", Column::MakeDouble({1.0, 2.0})}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_columns(), 2u);
  auto v = (*t)->GetColumn("v");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->DoubleAt(1), 2.0);
  EXPECT_FALSE((*t)->GetColumn("missing").ok());
}

TEST(TableTest, TakeAndSelectAndHead) {
  auto t = *Table::FromColumns({{"k", Column::MakeString({"x", "y", "z"})},
                                {"v", Column::MakeInt64({1, 2, 3})}});
  auto taken = t->Take({2, 0});
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ((*taken)->num_rows(), 2u);
  EXPECT_EQ((*(*taken)->GetColumn("k"))->StringAt(0), "z");

  auto selected = t->Select({"v"});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ((*selected)->num_columns(), 1u);

  auto head = t->Head(2);
  EXPECT_EQ((*head)->num_rows(), 2u);
  auto head_all = t->Head(10);
  EXPECT_EQ((*head_all)->num_rows(), 3u);
}

TEST(TableTest, ToStringPreviews) {
  auto t = *Table::FromColumns({{"k", Column::MakeString({"x", "y"})}});
  const std::string s = t->ToString(1);
  EXPECT_NE(s.find("x"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ------------------------------------------------------- Type inference --

TEST(TypeInferenceTest, NarrowestTypeWins) {
  EXPECT_EQ(InferType({"1", "2", "3"}).type, DataType::kInt64);
  EXPECT_EQ(InferType({"1", "2.5"}).type, DataType::kDouble);
  EXPECT_EQ(InferType({"1", "x"}).type, DataType::kString);
  EXPECT_EQ(InferType({"a", "b"}).type, DataType::kString);
}

TEST(TypeInferenceTest, NullTokensAreCountedNotTyped) {
  const auto inferred = InferType({"1", "", "NA", "3"});
  EXPECT_EQ(inferred.type, DataType::kInt64);
  EXPECT_EQ(inferred.null_count, 2u);
  EXPECT_EQ(InferType({"", "null", "n/a"}).type, DataType::kString);
}

TEST(TypeInferenceTest, IsNullToken) {
  EXPECT_TRUE(IsNullToken(""));
  EXPECT_TRUE(IsNullToken("  "));
  EXPECT_TRUE(IsNullToken("NULL"));
  EXPECT_TRUE(IsNullToken("NaN"));
  EXPECT_TRUE(IsNullToken("None"));
  EXPECT_FALSE(IsNullToken("0"));
  EXPECT_FALSE(IsNullToken("nil"));
}

TEST(TypeInferenceTest, ParseColumnProducesTypedNulls) {
  auto col = ParseColumn({"1.5", "", "2.5"});
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->type(), DataType::kDouble);
  EXPECT_EQ((*col)->null_count(), 1u);
  EXPECT_EQ((*col)->DoubleAt(2), 2.5);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ReadBasicWithTypes) {
  auto t = ReadCsvString("name,age,score\nalice,30,1.5\nbob,25,2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 2u);
  EXPECT_EQ((*(*t)->GetColumn("name"))->type(), DataType::kString);
  EXPECT_EQ((*(*t)->GetColumn("age"))->type(), DataType::kInt64);
  EXPECT_EQ((*(*t)->GetColumn("score"))->type(), DataType::kDouble);
  EXPECT_EQ((*(*t)->GetColumn("age"))->Int64At(1), 25);
}

TEST(CsvTest, QuotedFieldsAndEscapes) {
  auto t = ReadCsvString(
      "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"line\nbreak\",z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*(*t)->GetColumn("a"))->StringAt(0), "x,y");
  EXPECT_EQ((*(*t)->GetColumn("b"))->StringAt(0), "say \"hi\"");
  EXPECT_EQ((*(*t)->GetColumn("a"))->StringAt(1), "line\nbreak");
}

TEST(CsvTest, HeaderlessAndNoInference) {
  CsvReadOptions options;
  options.has_header = false;
  options.infer_types = false;
  auto t = ReadCsvString("1,2\n3,4\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema().field(0).name, "col0");
  EXPECT_EQ((*(*t)->GetColumn("col0"))->type(), DataType::kString);
}

TEST(CsvTest, RejectsRaggedRowsAndUnterminatedQuotes) {
  EXPECT_FALSE(ReadCsvString("a,b\n1\n").ok());
  EXPECT_FALSE(ReadCsvString("a,b\n\"oops,1\n").ok());
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvTest, QuotedFieldsKeepDelimitersAndQuotes) {
  auto back = ReadCsvString("k,v\n\"a,b\",1.5\n\"q\"\"q\",-2\nplain,0.25\n");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->num_rows(), 3u);
  EXPECT_EQ((*(*back)->GetColumn("k"))->StringAt(0), "a,b");
  EXPECT_EQ((*(*back)->GetColumn("k"))->StringAt(1), "q\"q");
  EXPECT_EQ((*(*back)->GetColumn("v"))->DoubleAt(2), 0.25);
}

TEST(CsvTest, CrLfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 2u);
  EXPECT_EQ((*(*t)->GetColumn("b"))->Int64At(1), 4);
}

TEST(CsvTest, ReadsFiles) {
  const std::string path = testing::TempDir() + "/joinmi_csv_test.csv";
  std::ofstream(path, std::ios::binary) << "x\n7\n8\n";
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*(*back)->GetColumn("x"))->Int64At(1), 8);
  EXPECT_FALSE(ReadCsvFile("/nonexistent/really/not.csv").ok());
}

}  // namespace
}  // namespace joinmi
