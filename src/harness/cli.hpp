#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gbc::harness {

/// Minimal typed command-line flag parser for the gbcsim tool and example
/// binaries: `--name value` or `--name=value`; `--bool-flag` toggles true.
/// Unknown flags are errors; `--help` is always available.
class FlagSet {
 public:
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  void add_double(const std::string& name, double default_value,
                  std::string help);
  void add_int(const std::string& name, int default_value, std::string help);
  void add_bool(const std::string& name, bool default_value,
                std::string help);

  /// Opts in to positional arguments. By default any token that is not a
  /// declared `--flag` is a parse error, so typos like `-tier` or a stray
  /// value cannot be silently ignored.
  void allow_positional() { allow_positional_ = true; }

  /// Parses argv; returns false (and fills error()) on bad input. A `--help`
  /// request returns false with empty error().
  bool parse(int argc, const char* const* argv);

  /// Was a flag of this name declared?
  bool has(const std::string& name) const { return flags_.count(name) != 0; }
  std::string get_string(const std::string& name) const;
  double get_double(const std::string& name) const;
  int get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Positional arguments (only populated after allow_positional()).
  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }
  bool help_requested() const { return help_requested_; }
  std::string usage() const;

 private:
  enum class Type { kString, kDouble, kInt, kBool };
  struct Flag {
    Type type;
    std::string value;  // canonical textual value
    std::string help;
  };
  const Flag* find(const std::string& name, Type t) const;

  std::string program_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  std::string error_;
  bool help_requested_ = false;
  bool allow_positional_ = false;
};

}  // namespace gbc::harness
