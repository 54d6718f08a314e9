/**
 * @file
 * Scheme explorer: a design-space tool for PCM error protection.
 *
 * Given a block size and a space budget, it tabulates every scheme
 * family in the library — overhead bits, guaranteed (hard) FTC, and a
 * quick Monte-Carlo estimate of the average faults a block actually
 * absorbs (soft FTC) — then recommends the strongest scheme under the
 * budget. This is the workflow a memory-controller architect would
 * use Aegis for.
 *
 *   ./build/examples/scheme_explorer --block-bits=512 --budget=64
 */

#include <iostream>
#include <vector>

#include "aegis/cost.h"
#include "aegis/factory.h"
#include "sim/experiment.h"
#include "util/cli.h"
#include "util/primes.h"
#include "util/table_printer.h"

using namespace aegis;

namespace {

/** Mean faults-at-death of one block under the scheme. */
double
softFtc(const std::string &scheme, std::uint32_t block_bits,
        std::uint32_t blocks)
{
    sim::ExperimentConfig cfg;
    cfg.scheme = scheme;
    cfg.blockBits = block_bits;
    cfg.lifetimeMean = 1e6;    // scale is irrelevant for fault counts
    const sim::BlockStudy study = sim::runBlockStudy(cfg, blocks);
    double sum = 0;
    for (const auto &[faults, count] : study.faultsAtDeath.items())
        sum += static_cast<double>(faults - 1) *
               static_cast<double>(count);
    return sum / static_cast<double>(study.faultsAtDeath.total());
}

} // namespace

int
main(int argc, char **argv)
{
    static constexpr FlagSpec kFlags[] = {
        {"block-bits", FlagKind::Uint, "512",
         "data block size in bits"},
        {"budget", FlagKind::Uint, "64", "metadata budget in bits"},
        {"blocks", FlagKind::Uint, "200",
         "Monte-Carlo blocks per estimate"},
    };
    CliParser cli("scheme_explorer",
                  "Explore the protection design space for one data "
                  "block");
    cli.addAll(kFlags);
    try {
        if (!cli.parse(argc, argv))
            return 0;
        const auto bits =
            static_cast<std::uint32_t>(cli.getUint("block-bits"));
        const auto budget = cli.getUint("budget");
        const auto blocks =
            static_cast<std::uint32_t>(cli.getUint("blocks"));

        std::vector<std::string> candidates;
        for (std::size_t n = 1; n <= 12; ++n)
            candidates.push_back("ecp" + std::to_string(n));
        for (std::size_t n = 8; n <= bits / 4; n *= 2)
            candidates.push_back("safer" + std::to_string(n));
        candidates.push_back("rdis3");
        for (std::uint32_t b = core::minimalHeight(bits); b <= 97;
             b = static_cast<std::uint32_t>(nextPrime(b + 1))) {
            const std::uint32_t a = (bits + b - 1) / b;
            candidates.push_back("aegis-" + std::to_string(a) + "x" +
                                 std::to_string(b));
        }

        TablePrinter t("Protection design space for a " +
                       std::to_string(bits) + "-bit block (budget " +
                       std::to_string(budget) + " bits)");
        t.setHeader({"scheme", "bits", "% of data", "hard FTC",
                     "soft FTC (avg)", "within budget"});
        std::string best;
        double best_soft = -1;
        for (const std::string &name : candidates) {
            auto scheme = core::makeScheme(name, bits);
            const double soft = softFtc(name, bits, blocks);
            const bool fits = scheme->overheadBits() <= budget;
            if (fits && soft > best_soft) {
                best_soft = soft;
                best = name;
            }
            t.addRow({name, std::to_string(scheme->overheadBits()),
                      TablePrinter::num(
                          100.0 *
                              static_cast<double>(
                                  scheme->overheadBits()) /
                              bits,
                          1),
                      std::to_string(scheme->hardFtc()),
                      TablePrinter::num(soft, 1), fits ? "yes" : "no"});
        }
        t.print(std::cout);
        std::cout << "\nRecommendation within " << budget
                  << " bits: " << best << " (absorbs ~"
                  << TablePrinter::num(best_soft, 1)
                  << " faults per block on average)\n";
        return 0;
    } catch (const std::exception &ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 1;
    }
}
