#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cloudlb {

/// Entry point of the `cloudlb` command-line tool, separated from main()
/// so tests can drive it with captured streams.
///
/// Subcommands:
///   penalty   — one penalty experiment (app + balancer + cores)
///   sweep     — the Figure-2/4 grid over core counts and balancers
///   timeline  — run a scenario and render the per-core ASCII timeline
///   record    — run one scenario, writing every LB window to a trace
///   replay    — score a balancer offline against a recorded trace
///   apps      — list bundled applications
///   balancers — list balancer strategies
///   help      — usage; `help <command>` lists the command's flags
///
/// Every flag is a row of one table (cli_flags()), and the command line
/// is checked against it before any simulation starts. Returns a process
/// exit code (0 on success, 1 on usage errors).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// How a flag's value is spelled: `--n=8`, `--f=0.5`, bare `--flag` (or
/// `--flag=true|false|1|0|yes|no`), `--s=name`, `--n=4,8` or `--s=a,b`.
enum class FlagKind { kInt, kDouble, kBool, kString, kIntList, kStringList };

class CommandLine;

/// Accepted values. A number (or list item) must be at least lo (above it,
/// a 0, when open_lo); NaN and infinities fail every range, and an int
/// must fit in one.
/// A default outside the range is an "off" value that is
/// accepted too (--estimator-window=0). A name (or list item) must be one
/// of names() when that is set. The note says why the bound is there, or
/// what an off default means, or what the names name.
struct Range {
  static constexpr double kMax = 2147483647;  ///< INT_MAX, for ints
  double lo = -kMax;
  bool open_lo = false;
  const char* note = nullptr;
  std::vector<std::string> (*names)() = nullptr;
};

/// One row of the flag table: a flag's every property, written once.
struct Flag {
  const char* name;   ///< without the leading `--`
  unsigned commands;  ///< bit i set: accepted by the i-th command of help
  FlagKind kind;
  const char* fallback;  ///< the default, spelled as on the command line
  Range range;
  const char* help;
  /// A rule across flags, run once every value is in range; returns the
  /// error, or "" when the line is fine.
  std::string (*constraint)(const CommandLine&, const Flag&) = nullptr;
};

/// The flags `command` accepts, in help order (none for apps, balancers
/// and help, or for an unknown command).
std::vector<const Flag*> cli_flags(const std::string& command);

/// A command line checked against the flag table. The constructor throws
/// CheckFailure naming every fault at once: a flag the command does not
/// accept, a repeated flag, a positional argument, a malformed or
/// out-of-range value, a broken constraint. The getters read a flag's
/// value, or its default when it was not given.
class CommandLine {
 public:
  CommandLine(std::string command, const std::vector<std::string>& args);

  const std::string& command() const { return command_; }
  bool given(const std::string& name) const { return at(name).given; }
  const std::string& text(const std::string& f) const { return at(f).text; }
  int integer(const std::string& name) const { return ints(name).front(); }
  double number(const std::string& name) const;
  bool boolean(const std::string& name) const;
  std::vector<int> ints(const std::string& name) const;

 private:
  struct Value {
    const Flag* flag;
    std::string text;
    bool given = false;
  };
  const Value& at(const std::string& name) const;

  std::string command_;
  std::vector<Value> values_;
};

}  // namespace cloudlb
