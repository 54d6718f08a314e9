/**
 * @file
 * Ablation: how much lifetime do the extra inversion writes of
 * cache-less partition schemes really cost? Sweeps the amplification
 * term of the wear model (0 = ideal single-pass writes, 0.5 = the
 * default expected extra program per write in fault groups, 1.0 =
 * pessimistic double writes) for basic Aegis and SAFER. This
 * quantifies the wear half of the fail cache's benefit discussed in
 * §2.4/§3.3 of the paper (Aegis-rw removes these writes entirely).
 */

#include <vector>

#include "aegis/factory.h"
#include "bench/bench_common.h"

namespace {

using namespace aegis;

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchRunner runner("ablation_wear_amplification",
                  "Inversion-write wear cost for cache-less schemes");
    CliParser &cli = runner.cli();
    return runner.run(argc, argv, [&] {
        const std::vector<double> extras{0.0, 0.25, 0.5, 1.0};
        const std::vector<std::string> schemes{
            "safer32", "safer64", "aegis-23x23", "aegis-17x31",
            "aegis-9x61"};

        TablePrinter t("Ablation — mean page lifetime (M writes) vs "
                       "inversion-write amplification (512-bit "
                       "blocks)");
        std::vector<std::string> header{"scheme"};
        for (double e : extras) {
            std::string column = "+";
            column += TablePrinter::num(e, 2);
            column += " writes";
            header.push_back(column);
        }
        header.push_back("cost of default vs ideal");
        t.setHeader(header);

        for (const std::string &name : schemes) {
            std::vector<std::string> row{name};
            double ideal = 0, def = 0;
            for (double e : extras) {
                sim::ExperimentConfig cfg =
                    bench::configFrom(cli, 512);
                cfg.scheme = name;
                cfg.wear.amplifiedExtra = e;
                const sim::PageStudy study = bench::pageStudy(cfg);
                const double life = study.pageLifetime.mean();
                if (e == 0.0)
                    ideal = life;
                if (e == 0.5)
                    def = life;
                row.push_back(TablePrinter::num(life / 1e6, 1));
            }
            row.push_back(
                TablePrinter::num(100.0 * (1.0 - def / ideal), 1) +
                "%");
            t.addRow(row);
        }
        bench::emit(t, cli);
    });
}
