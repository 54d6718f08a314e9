#include "aegis/factory.h"

#include <charconv>

#include "aegis/aegis_rw.h"
#include "aegis/aegis_rw_p.h"
#include "aegis/aegis_scheme.h"
#include "audit/scheme_auditor.h"
#include "scheme/ecp.h"
#include "scheme/none.h"
#include "scheme/rdis.h"
#include "scheme/safer.h"
#include "util/error.h"

namespace aegis::core {

namespace {

/** Parse the integer after @p prefix, or -1 when @p s doesn't match. */
long
numberAfter(const std::string &s, const std::string &prefix)
{
    if (s.rfind(prefix, 0) != 0)
        return -1;
    long value = -1;
    const char *begin = s.data() + prefix.size();
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end)
        return -1;
    return value;
}

/** Parse "AxB" (e.g. "9x61"); returns false when malformed. */
bool
parseFormation(const std::string &s, std::uint32_t &a, std::uint32_t &b)
{
    const auto x = s.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= s.size())
        return false;
    try {
        a = static_cast<std::uint32_t>(std::stoul(s.substr(0, x)));
        b = static_cast<std::uint32_t>(std::stoul(s.substr(x + 1)));
    } catch (const std::exception &) {
        return false;
    }
    return a > 0 && b > 0;
}

/** Strip a trailing "+audit", returning true when it was present. */
bool
stripAuditSuffix(std::string &name)
{
    const std::string suffix = "+audit";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0) {
        return false;
    }
    name.resize(name.size() - suffix.size());
    return true;
}

/** Build the bare (never audited) scheme for a base name. */
std::unique_ptr<scheme::Scheme>
makeBareScheme(const std::string &name, std::size_t block_bits)
{
    const auto bits = static_cast<std::uint32_t>(block_bits);

    if (name == "none")
        return std::make_unique<scheme::NoneScheme>(block_bits);

    if (long n = numberAfter(name, "ecp"); n > 0) {
        return std::make_unique<scheme::EcpScheme>(
            block_bits, static_cast<std::size_t>(n));
    }
    if (long d = numberAfter(name, "rdis"); d > 1) {
        return std::make_unique<scheme::RdisScheme>(
            block_bits, 16, static_cast<std::size_t>(d));
    }

    if (name.rfind("safer", 0) == 0) {
        std::string rest = name.substr(5);
        bool cache = false;
        const std::string suffix = "-cache";
        if (rest.size() > suffix.size() &&
            rest.compare(rest.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            cache = true;
            rest = rest.substr(0, rest.size() - suffix.size());
        }
        if (long n = numberAfter(rest, ""); n > 0) {
            return std::make_unique<scheme::SaferScheme>(
                block_bits, static_cast<std::size_t>(n), cache);
        }
    }

    if (name.rfind("aegis-rw-p", 0) == 0) {
        const std::string rest = name.substr(10);    // "P-AxB"
        const auto dash = rest.find('-');
        std::uint32_t a = 0, b = 0;
        if (dash != std::string::npos &&
            parseFormation(rest.substr(dash + 1), a, b)) {
            long p = -1;
            try {
                p = std::stol(rest.substr(0, dash));
            } catch (const std::exception &) {
            }
            if (p > 0) {
                return std::make_unique<AegisRwPScheme>(
                    a, b, bits, static_cast<std::uint32_t>(p));
            }
        }
    } else if (name.rfind("aegis-cache-", 0) == 0) {
        std::uint32_t a = 0, b = 0;
        if (parseFormation(name.substr(12), a, b)) {
            return std::make_unique<AegisScheme>(a, b, bits,
                                                 /*use_cache=*/true);
        }
    } else if (name.rfind("aegis-rw-", 0) == 0) {
        std::uint32_t a = 0, b = 0;
        if (parseFormation(name.substr(9), a, b))
            return std::make_unique<AegisRwScheme>(a, b, bits);
    } else if (name.rfind("aegis-", 0) == 0) {
        std::uint32_t a = 0, b = 0;
        if (parseFormation(name.substr(6), a, b))
            return std::make_unique<AegisScheme>(a, b, bits);
    }

    throw ConfigError("unknown scheme name `" + name + "'");
}

} // namespace

SchemeSpec
SchemeSpec::parse(const std::string &spelled)
{
    SchemeSpec spec{spelled, false};
    while (stripAuditSuffix(spec.name))
        spec.audit = true;
    return spec;
}

std::unique_ptr<scheme::Scheme>
makeScheme(const SchemeSpec &spec, std::size_t block_bits)
{
    auto scheme = makeBareScheme(spec.name, block_bits);
    return spec.audit ? audit::wrapWithAuditor(std::move(scheme))
                      : std::move(scheme);
}

std::unique_ptr<scheme::Scheme>
makeScheme(const std::string &name, std::size_t block_bits)
{
    return makeScheme(SchemeSpec::parse(name), block_bits);
}

std::unique_ptr<scheme::Scheme>
makeAuditedScheme(const std::string &name, std::size_t block_bits)
{
    return makeScheme(SchemeSpec::parse(name).audited(), block_bits);
}

std::vector<std::string>
paperSchemeNames(std::size_t block_bits)
{
    if (block_bits == 256) {
        return {"ecp4",        "ecp5",        "ecp6",
                "safer32",     "safer64",     "rdis3",
                "aegis-12x23", "aegis-9x31"};
    }
    return {"ecp4",        "ecp5",        "ecp6",    "safer32",
            "safer64",     "safer128",    "rdis3",   "aegis-23x23",
            "aegis-17x31", "aegis-9x61"};
}

} // namespace aegis::core
