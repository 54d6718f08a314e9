/**
 * @file
 * Construct any scheme in the repository from its textual name.
 *
 * Names (block size supplied separately):
 *   "none"                    unprotected baseline
 *   "ecpN"                    ECP with N pointers, e.g. "ecp6"
 *   "saferN"                  SAFER with N groups, e.g. "safer32"
 *   "saferN-cache"            SAFER with an ideal fail cache
 *   "rdis3" / "rdisD"         RDIS of depth D (16-row grid)
 *   "aegis-AxB"               basic Aegis, e.g. "aegis-9x61"
 *   "aegis-cache-AxB"         basic Aegis with an ideal fail cache
 *   "aegis-rw-AxB"            Aegis-rw, e.g. "aegis-rw-17x31"
 *   "aegis-rw-pP-AxB"         Aegis-rw-p with P pointers,
 *                             e.g. "aegis-rw-p5-17x31"
 *
 * Any name may carry a "+audit" suffix (e.g. "aegis-9x61+audit") to
 * wrap the scheme in the runtime invariant auditor
 * (audit::SchemeAuditor); scheme->name() round-trips the spelling.
 */

#ifndef AEGIS_AEGIS_FACTORY_H
#define AEGIS_AEGIS_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "scheme/scheme.h"

namespace aegis::core {

/**
 * Structured form of a factory spelling: the base scheme name plus
 * whether the runtime invariant auditor wraps it. The textual factory
 * spelling ("<name>" or "<name>+audit") remains the serialized form,
 * so scheme->name() round-trips through parse()/str() unchanged.
 */
struct SchemeSpec
{
    /** Base factory name, never carrying an "+audit" suffix. */
    std::string name;
    /** Wrap the scheme in audit::SchemeAuditor. */
    bool audit = false;

    /** Parse a factory spelling; any number of trailing "+audit"
     *  suffixes collapse into the single audit flag. */
    static SchemeSpec parse(const std::string &spelled);

    /** Serialized factory spelling (round-trips through parse()). */
    std::string str() const { return audit ? name + "+audit" : name; }

    /** Copy with auditing forced on (never double-audits). */
    SchemeSpec audited() const { return {name, true}; }

    friend bool operator==(const SchemeSpec &,
                           const SchemeSpec &) = default;
};

/** Build a scheme from a structured spec; throws ConfigError on
 *  unknown names. */
std::unique_ptr<scheme::Scheme> makeScheme(const SchemeSpec &spec,
                                           std::size_t block_bits);

/** Build a scheme by textual spelling; throws ConfigError on unknown
 *  names. */
std::unique_ptr<scheme::Scheme> makeScheme(const std::string &name,
                                           std::size_t block_bits);

/**
 * Build a scheme by name and wrap it in the runtime invariant
 * auditor. Accepts names with or without the "+audit" suffix; the
 * result is always audited exactly once.
 */
std::unique_ptr<scheme::Scheme>
makeAuditedScheme(const std::string &name, std::size_t block_bits);

/** Names of the schemes evaluated in the paper for @p block_bits. */
std::vector<std::string> paperSchemeNames(std::size_t block_bits);

} // namespace aegis::core

#endif // AEGIS_AEGIS_FACTORY_H
