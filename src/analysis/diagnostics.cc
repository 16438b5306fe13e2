/**
 * @file
 * Diagnostics implementation: severity bookkeeping and JSON output.
 */

#include "analysis/diagnostics.hh"

#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::analysis
{

std::string_view
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    rhmd_panic("bad severity");
}

void
Report::add(Finding finding)
{
    switch (finding.severity) {
      case Severity::Error:
        ++errors_;
        break;
      case Severity::Warning:
        ++warnings_;
        break;
      case Severity::Note:
        ++notes_;
        break;
    }
    findings_.push_back(std::move(finding));
}

void
Report::error(std::string_view pass, std::string_view code,
              std::size_t function, std::size_t block, std::size_t inst,
              std::string message)
{
    add({Severity::Error, pass, code, function, block, inst,
         std::move(message)});
}

void
Report::warning(std::string_view pass, std::string_view code,
                std::size_t function, std::size_t block, std::size_t inst,
                std::string message)
{
    add({Severity::Warning, pass, code, function, block, inst,
         std::move(message)});
}

void
Report::note(std::string_view pass, std::string_view code,
             std::size_t function, std::size_t block, std::size_t inst,
             std::string message)
{
    add({Severity::Note, pass, code, function, block, inst,
         std::move(message)});
}

namespace
{

void
appendIndex(std::string &out, std::string_view key, std::size_t value)
{
    out += ",\"";
    out += key;
    out += "\":";
    if (value == kNoIndex)
        out += "null";
    else
        out += std::to_string(value);
}

} // namespace

std::string
Report::toJsonLines(std::string_view program) const
{
    std::string out;
    for (const Finding &finding : findings_) {
        out += "{\"program\":\"";
        out += support::jsonEscape(program);
        out += "\",\"severity\":\"";
        out += severityName(finding.severity);
        out += "\",\"pass\":\"";
        out += finding.pass;
        out += "\",\"code\":\"";
        out += finding.code;
        out += '"';
        appendIndex(out, "function", finding.function);
        appendIndex(out, "block", finding.block);
        appendIndex(out, "inst", finding.inst);
        out += ",\"message\":\"";
        out += support::jsonEscape(finding.message);
        out += "\"}\n";
    }
    return out;
}

std::string
Report::summary() const
{
    return std::to_string(errors_) +
           (errors_ == 1 ? " error, " : " errors, ") +
           std::to_string(warnings_) +
           (warnings_ == 1 ? " warning, " : " warnings, ") +
           std::to_string(notes_) + (notes_ == 1 ? " note" : " notes");
}

} // namespace rhmd::analysis
