#include "util/delimited.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace maras {
namespace {

TEST(DelimitedReaderTest, ParsesHeaderAndRows) {
  DelimitedReader reader('$');
  auto table = reader.ParseString("a$b$c\n1$2$3\n4$5$6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(DelimitedReaderTest, HandlesCrLfAndBlankLines) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\r\n\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(DelimitedReaderTest, MissingFinalNewlineOk) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\n1,2");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
}

TEST(DelimitedReaderTest, RowWidthMismatchIsCorruption) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("x,y\n1,2,3\n");
  EXPECT_TRUE(table.status().IsCorruption());
}

TEST(DelimitedReaderTest, EmptyContentIsCorruption) {
  DelimitedReader reader(',');
  EXPECT_TRUE(reader.ParseString("").status().IsCorruption());
}

TEST(DelimitedReaderTest, EmptyFieldsPreserved) {
  DelimitedReader reader('$');
  auto table = reader.ParseString("a$b\n$\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0], (std::vector<std::string>{"", ""}));
}

TEST(DelimitedTableTest, ColumnIndex) {
  DelimitedTable table;
  table.header = {"primaryid", "caseid", "pt"};
  EXPECT_EQ(table.ColumnIndex("caseid"), 1);
  EXPECT_EQ(table.ColumnIndex("absent"), -1);
}

TEST(DelimitedWriterTest, RoundTrip) {
  DelimitedTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"", "x y"}};
  DelimitedWriter writer('$');
  auto text = writer.ToString(table);
  ASSERT_TRUE(text.ok());
  DelimitedReader reader('$');
  auto parsed = reader.ParseString(*text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(DelimitedWriterTest, WidthMismatchRejected) {
  DelimitedTable table;
  table.header = {"a", "b"};
  table.rows = {{"only-one"}};
  DelimitedWriter writer(',');
  EXPECT_TRUE(writer.ToString(table).status().IsInvalidArgument());
}

TEST(DelimitedPermissiveTest, BadRowsAreCollectedNotFatal) {
  DelimitedReader reader('$');
  std::vector<DelimitedRowIssue> issues;
  auto table = reader.ParseString("a$b$c\n1$2$3\nshort$row\n4$5$6\n1$2$3$4\n",
                                  &issues);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->row_lines, (std::vector<size_t>{2, 4}));
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].line, 3u);
  EXPECT_EQ(issues[0].content, "short$row");
  EXPECT_NE(issues[0].reason.find("2 fields, expected 3"), std::string::npos);
  EXPECT_EQ(issues[1].line, 5u);
}

TEST(DelimitedParseTest, VisitorSeesHeaderThenRowsAsViews) {
  DelimitedReader reader('$');
  const std::string content = "a$b\r\n\r\n1$2\r\nbad\r\n$x";
  std::vector<std::string> header;
  std::vector<std::pair<size_t, std::string>> rows;
  std::vector<DelimitedRowIssue> issues;
  Status status = reader.Parse(
      content, &issues,
      [&](const DelimitedRow& row) {
        EXPECT_EQ(row.line, 1u);
        header.assign(row.fields.begin(), row.fields.end());
      },
      [&](const DelimitedRow& row) {
        ASSERT_EQ(row.fields.size(), 2u);
        rows.emplace_back(row.line, std::string(row.text));
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(header, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows, (std::vector<std::pair<size_t, std::string>>{
                      {3, "1$2"}, {5, "$x"}}));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 4u);
  EXPECT_EQ(issues[0].content, "bad");
}

TEST(DelimitedPermissiveTest, MissingHeaderStillFails) {
  DelimitedReader reader('$');
  std::vector<DelimitedRowIssue> issues;
  EXPECT_TRUE(reader.ParseString("", &issues).status().IsCorruption());
}

TEST(DelimitedPermissiveTest, RowLinesAccountForBlankLines) {
  DelimitedReader reader(',');
  auto table = reader.ParseString("h1,h2\n\na,b\n\nc,d\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row_lines, (std::vector<size_t>{3, 5}));
}

TEST(FileIoTest, WriteAndReadBack) {
  std::string path = ::testing::TempDir() + "/maras_delim_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ReadFileToString("/nonexistent/dir/file.txt").status().IsIOError());
}

TEST(FileIoTest, ReadWriteFileTable) {
  std::string path = ::testing::TempDir() + "/maras_table_test.txt";
  DelimitedTable table;
  table.header = {"h1", "h2"};
  table.rows = {{"v1", "v2"}};
  DelimitedWriter writer('$');
  ASSERT_TRUE(writer.WriteFile(path, table).ok());
  DelimitedReader reader('$');
  auto parsed = reader.ReadFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maras
