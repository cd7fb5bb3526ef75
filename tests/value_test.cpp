#include <gtest/gtest.h>

#include "nidb/value.hpp"

namespace {

using namespace autonet::nidb;

TEST(Value, ScalarsAndTruthiness) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_FALSE(Value().truthy());
  EXPECT_TRUE(Value(true).truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_TRUE(Value(3).truthy());
  EXPECT_FALSE(Value("").truthy());
  EXPECT_TRUE(Value("x").truthy());
  EXPECT_FALSE(Value(Array{}).truthy());
  EXPECT_TRUE(Value(Array{Value(1)}).truthy());
  EXPECT_FALSE(Value(Object{}).truthy());
}

TEST(Value, PathAccess) {
  Value root;
  root.set_path("zebra.hostname", "as100r1");
  root.set_path("zebra.password", "1234");
  root.set_path("ospf.process_id", 1);
  const Value* v = root.find_path("zebra.hostname");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v->as_string(), "as100r1");
  EXPECT_EQ(root.find_path("zebra.missing"), nullptr);
  EXPECT_EQ(root.find_path("nothing.at.all"), nullptr);
  EXPECT_EQ(root.find_path("zebra.hostname.too.deep"), nullptr);
}

TEST(Value, FindPathArrayIndexing) {
  Value root = parse_json(
      R"({"bgp": {"neighbors": [{"ip": "10.0.0.1"}, {"ip": "10.0.0.2"}]},)"
      R"( "grid": [[1, 2], [3, 4]]})");
  ASSERT_NE(root.find_path("bgp.neighbors[1]"), nullptr);
  EXPECT_EQ(*root.find_path("bgp.neighbors[1].ip")->as_string(), "10.0.0.2");
  EXPECT_EQ(root.find_path("grid[1][0]")->as_int(), 3);
  // Out of range, malformed, or indexing a non-array all miss cleanly.
  EXPECT_EQ(root.find_path("bgp.neighbors[2]"), nullptr);
  EXPECT_EQ(root.find_path("bgp.neighbors[x]"), nullptr);
  EXPECT_EQ(root.find_path("bgp.neighbors["), nullptr);
  EXPECT_EQ(root.find_path("bgp.neighbors[]"), nullptr);
  EXPECT_EQ(root.find_path("bgp[0]"), nullptr);
}

TEST(Value, IndexOperatorCreatesObjects) {
  Value v;
  v["a"]["b"] = Value(1);
  EXPECT_EQ(v.find_path("a.b")->as_int(), 1);
}

TEST(Value, TypeMismatchThrows) {
  Value v(42);
  EXPECT_THROW(v.object(), std::logic_error);
  EXPECT_THROW(v.array(), std::logic_error);
}

TEST(Value, FromAttr) {
  using autonet::graph::AttrValue;
  EXPECT_TRUE(Value::from_attr(AttrValue()).is_null());
  EXPECT_EQ(Value::from_attr(AttrValue(5)).as_int(), 5);
  EXPECT_EQ(*Value::from_attr(AttrValue("x")).as_string(), "x");
  auto list = Value::from_attr(AttrValue(std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(list.is_array());
  EXPECT_EQ(list.as_array()->size(), 2u);
}

TEST(Value, DisplayFormatting) {
  EXPECT_EQ(Value().to_display(), "");
  EXPECT_EQ(Value(true).to_display(), "true");
  EXPECT_EQ(Value(7).to_display(), "7");
  EXPECT_EQ(Value(2.5).to_display(), "2.5");
  EXPECT_EQ(Value("text").to_display(), "text");
}

TEST(Json, SerializeCompact) {
  Value v;
  v["name"] = "r1";
  v["asn"] = 100;
  v["up"] = true;
  v["links"].array().emplace_back(Value(Object{{"cost", Value(5)}}));
  std::string json = v.to_json();
  EXPECT_EQ(json,
            R"({"asn": 100, "links": [{"cost": 5}], "name": "r1", "up": true})");
}

TEST(Json, EscapesStrings) {
  Value v(std::string("a\"b\\c\nd"));
  EXPECT_EQ(v.to_json(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("-17").as_int(), -17);
  EXPECT_EQ(parse_json("2.5").as_double(), 2.5);
  EXPECT_EQ(parse_json("1e3").as_double(), 1000.0);
  EXPECT_EQ(*parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersBeyondInt64ParseAsDouble) {
  EXPECT_EQ(parse_json("9223372036854775807").as_int(), INT64_MAX);
  const Value big = parse_json("18446744073709551615");
  EXPECT_FALSE(big.is_int());
  EXPECT_EQ(big.as_double(), 18446744073709551615.0);
  EXPECT_EQ(parse_json("-18446744073709551616").as_double(), -18446744073709551616.0);
}

TEST(Json, ParseNested) {
  Value v = parse_json(R"({"a": [1, 2, {"b": null}], "c": "x"})");
  ASSERT_TRUE(v.is_object());
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->as_array()->size(), 3u);
  EXPECT_TRUE((*a->as_array())[2].find("b")->is_null());
}

TEST(Json, ParseEscapes) {
  EXPECT_EQ(*parse_json(R"("a\nb\t\"cA")").as_string(), "a\nb\t\"cA");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
  EXPECT_THROW(parse_json("1 2"), std::runtime_error);
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
}

TEST(Json, RoundTrip) {
  const char* text =
      R"({"bgp": {"asn": 100, "networks": ["10.0.0.0/8"]}, "flag": false, )"
      R"("interfaces": [{"id": "eth1"}, {"id": "eth2"}], "x": 1.5})";
  Value v = parse_json(text);
  EXPECT_EQ(parse_json(v.to_json()), v);
  EXPECT_EQ(v.to_json(), text);
}

TEST(Json, PrettyPrintParsesBack) {
  Value v = parse_json(R"({"a": [1, {"b": 2}], "c": "x"})");
  std::string pretty = v.to_json(true);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(parse_json(pretty), v);
}

TEST(Value, EqualityCrossNumeric) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value("1"), Value(1));
}

}  // namespace
