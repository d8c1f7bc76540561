// Attribute schemas and attribute values.
//
// The paper (§III) assumes "each resource is described by a set of attributes
// with globally known types denoted by a, and values/ranges or string
// description denoted by π_a" — e.g. "CPU=1000MHz" (numeric) or "OS=Linux"
// (string). Numeric values feed the locality-preserving hash directly;
// string values are ordered through a globally known enumeration, so both
// map to a totally ordered ordinal domain.
//
// A value is its ordinal and nothing else: a number is itself, a string is
// its index in the attribute's sorted enumeration. Text enters through
// AttributeSchema::TextValue and leaves through AttributeSchema::Format;
// everything in between (placement keys, directory order, range checks,
// deduplication) compares plain doubles.
#pragma once

#include <compare>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace lorm::resource {

enum class ValueKind { kNumeric, kText };

/// A single attribute value, held as its schema ordinal. Values of one
/// attribute are totally ordered by ordinal; for a text attribute that is
/// the lexicographic order of the names.
class AttrValue {
 public:
  constexpr AttrValue() = default;

  /// A numeric value, or an ordinal taken as is.
  static constexpr AttrValue Number(double v) {
    AttrValue a;
    a.ordinal_ = v;
    return a;
  }

  constexpr double ordinal() const { return ordinal_; }

  constexpr bool operator==(const AttrValue&) const = default;
  constexpr auto operator<=>(const AttrValue&) const = default;

 private:
  double ordinal_ = 0;
};

/// Globally known type of one attribute: its name, value kind and ordered
/// value domain (numeric interval or sorted enumeration).
class AttributeSchema {
 public:
  static AttributeSchema Numeric(std::string name, double min_value,
                                 double max_value);
  /// `values` is sorted internally so ordinal order == lexicographic order.
  static AttributeSchema Text(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  ValueKind kind() const { return kind_; }

  /// The value's position in the ordinal domain [ordinal_min, ordinal_max].
  double OrdinalOf(const AttrValue& v) const { return v.ordinal(); }
  double ordinal_min() const { return min_; }
  double ordinal_max() const { return max_; }

  /// The value nearest `ordinal` inside the domain: numbers are clamped,
  /// text ordinals are rounded to the nearest enumeration entry.
  AttrValue ValueAt(double ordinal) const;

  /// The text value `name` (its enumeration index); throws ConfigError if
  /// this is not a text attribute or `name` is not in its enumeration.
  AttrValue TextValue(std::string_view name) const;

  /// The value as users write it: the number, or the enumeration name.
  std::string Format(const AttrValue& v) const;

 private:
  AttributeSchema() = default;

  std::string name_;
  ValueKind kind_ = ValueKind::kNumeric;
  double min_ = 0;
  double max_ = 1;
  std::vector<std::string> enum_;
};

/// Registry of the globally known attribute types; AttrIds are dense indices
/// into it. Shared (by const reference) by every discovery system in an
/// experiment so all of them see identical schemas.
class AttributeRegistry {
 public:
  AttrId RegisterNumeric(std::string name, double min_value, double max_value);
  AttrId RegisterText(std::string name, std::vector<std::string> values);

  const AttributeSchema& Get(AttrId id) const;
  std::optional<AttrId> Find(std::string_view name) const;
  std::size_t size() const { return schemas_.size(); }

 private:
  AttrId Add(AttributeSchema schema);

  std::vector<AttributeSchema> schemas_;
};

}  // namespace lorm::resource
