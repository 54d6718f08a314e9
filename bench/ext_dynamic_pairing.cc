/**
 * @file
 * Extension experiment: dynamic pairing of faulty pages (§4).
 *
 * The paper's related-work argument: OS-level schemes like dynamic
 * pairing slow down page loss, but a stronger in-block scheme delays
 * the loss in the first place. This bench shows both effects —
 * pairing stretches the capacity tail of every scheme, and Aegis
 * needs it later than ECP does.
 */

#include <vector>

#include "bench/bench_common.h"
#include "sim/pairing.h"

namespace {

using namespace aegis;

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRunner runner("ext_dynamic_pairing",
                  "Dynamic pairing of faulty pages (§4 extension)");
    static constexpr FlagSpec kFlags[] = {
        {"points", FlagKind::Uint, "12",
         "sample points along the capacity curve"},
    };
    CliParser &cli = runner.cli();
    cli.addAll(kFlags);
    return runner.run(argc, argv, [&] {
        const std::vector<std::string> schemes{"ecp4", "safer32",
                                               "aegis-17x31",
                                               "aegis-9x61"};
        const auto points =
            static_cast<std::size_t>(cli.getUint("points"));

        TablePrinter t("Dynamic pairing — memory capacity (pages "
                       "alive or paired) over time, 512-bit blocks, " +
                       std::to_string(cli.getUint("pages")) +
                       " pages");
        std::vector<std::string> header{"scheme", "mode"};
        for (std::size_t i = 2; i <= points; i += 2) {
            std::string column = "t";
            column += std::to_string(i);
            header.push_back(column);
        }
        header.push_back("50%-capacity time (M)");
        t.setHeader(header);

        for (const std::string &scheme : schemes) {
            sim::ExperimentConfig cfg = bench::configFrom(cli, 512);
            cfg.scheme = scheme;
            const sim::PairingStudy study =
                sim::runPairingStudy(cfg, points);

            const auto row = [&](bool paired) {
                const auto &curve = paired ? study.withPairing
                                           : study.withoutPairing;
                std::vector<std::string> cells{
                    scheme, paired ? "paired" : "retire"};
                for (std::size_t i = 2; i <= points; i += 2) {
                    cells.push_back(
                        TablePrinter::num(curve[i].second, 0));
                }
                cells.push_back(TablePrinter::num(
                    study.timeToCapacity(0.5, paired) / 1e6, 1));
                t.addRow(cells);
            };
            row(false);
            row(true);
        }
        bench::emit(t, cli);
    });
}
