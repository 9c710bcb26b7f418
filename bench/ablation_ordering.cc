/**
 * @file
 * Ablation for §3.3's motivation: the Circuitformer vs the linear
 * token-count regression on path-level prediction.
 *
 * A linear model cannot distinguish [mul, add] from [add, mul], so it
 * must mis-price MAC-fusable paths; the Circuitformer sees the order.
 * Reports held-out RRSE per target for both models plus the direct
 * MAC-pair check from the paper's example.
 */

#include <iostream>

#include "baselines/linear_regression.hh"
#include "bench_common.hh"
#include "core/circuitformer.hh"
#include "dist/exchange.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"

int
main(int argc, char **argv)
{
    using namespace sns;
    using graphir::TokenId;
    const auto args = bench::BenchArgs::parse(argc, argv);
    const auto oracle = bench::benchOracle();
    const auto &vocab = graphir::Vocabulary::instance();

    auto tok = [&vocab](const char *name) {
        return *vocab.parse(name);
    };

    // Random MAC-rich paths labelled by the oracle.
    Rng rng(args.seed);
    const std::vector<TokenId> pool = {
        tok("add16"), tok("mul16"), tok("xor16"), tok("mux16"),
        tok("sh16"),  tok("add32"), tok("mul32"), tok("lgt16"),
    };
    auto make_records = [&](int count) {
        std::vector<core::PathRecord> records;
        for (int i = 0; i < count; ++i) {
            std::vector<TokenId> tokens = {tok("dff16")};
            const int middle = 2 + static_cast<int>(rng.uniformInt(5ull));
            for (int j = 0; j < middle; ++j)
                tokens.push_back(rng.choice(pool));
            tokens.push_back(tok("dff16"));
            const auto truth = oracle.runPath(tokens);
            records.push_back({tokens, truth.timing_ps, truth.area_um2,
                               truth.power_mw});
        }
        return records;
    };
    const auto train = make_records(args.full ? 1200 : 400);
    const auto test = make_records(args.full ? 300 : 120);

    // --- Linear baseline. -----------------------------------------------
    baselines::LinearPathRegression linear;
    linear.fit(train);

    // --- Circuitformer. ---------------------------------------------------
    auto config = core::CircuitformerConfig::small();
    config.encoder.d_model = 48;
    config.encoder.d_ff = 128;
    core::Circuitformer model(config);
    model.fitNormalization(train);
    nn::Adam opt(model.parameters(), 1e-3);
    dist::LocalExchange exchange(1);
    Rng train_rng(args.seed + 1);
    const int epochs = args.full ? 160 : 60;
    for (int epoch = 0; epoch < epochs; ++epoch)
        model.trainEpoch(train, opt, train_rng, 64, exchange);

    // --- Held-out comparison. ----------------------------------------------
    std::vector<std::vector<TokenId>> test_paths;
    for (const auto &record : test)
        test_paths.push_back(record.tokens);
    const auto cf_preds = model.predict(test_paths);

    auto rrse_for = [&](auto getter_pred, auto getter_truth,
                        bool use_linear) {
        std::vector<double> pred;
        std::vector<double> truth;
        for (size_t i = 0; i < test.size(); ++i) {
            const auto lp = use_linear ? linear.predict(test[i].tokens)
                                       : cf_preds[i];
            pred.push_back(getter_pred(lp));
            truth.push_back(getter_truth(test[i]));
        }
        return rrse(pred, truth);
    };
    auto timing_of = [](const auto &x) { return x.timing_ps; };
    auto area_of = [](const auto &x) { return x.area_um2; };
    auto power_of = [](const auto &x) { return x.power_mw; };

    Table table("Ablation: path-level model choice (held-out RRSE, "
                "lower better)");
    table.setHeader({"target", "linear regression", "Circuitformer"});
    table.addRow({"timing",
                  formatDouble(rrse_for(timing_of, timing_of, true), 3),
                  formatDouble(rrse_for(timing_of, timing_of, false), 3)});
    table.addRow({"area",
                  formatDouble(rrse_for(area_of, area_of, true), 3),
                  formatDouble(rrse_for(area_of, area_of, false), 3)});
    table.addRow({"power",
                  formatDouble(rrse_for(power_of, power_of, true), 3),
                  formatDouble(rrse_for(power_of, power_of, false), 3)});
    table.print(std::cout);
    args.maybeCsv(table, "ablation_ordering");

    // --- The paper's MAC example. -------------------------------------------
    const std::vector<TokenId> mac = {tok("dff16"), tok("mul16"),
                                      tok("add16"), tok("dff16")};
    const std::vector<TokenId> swapped = {tok("dff16"), tok("add16"),
                                          tok("mul16"), tok("dff16")};
    const auto truth_mac = oracle.runPath(mac);
    const auto truth_swapped = oracle.runPath(swapped);
    const auto cf_pair = model.predict({mac, swapped});
    const auto lin_mac = linear.predict(mac);
    const auto lin_swapped = linear.predict(swapped);

    Table pair("The §3.3 example: [mul,add] (MAC-fusable) vs [add,mul]");
    pair.setHeader({"model", "timing[mul,add] ps", "timing[add,mul] ps",
                    "sees ordering?"});
    pair.addRow({"ground truth", formatDouble(truth_mac.timing_ps, 1),
                 formatDouble(truth_swapped.timing_ps, 1), "-"});
    pair.addRow({"linear", formatDouble(lin_mac.timing_ps, 1),
                 formatDouble(lin_swapped.timing_ps, 1),
                 lin_mac.timing_ps == lin_swapped.timing_ps ? "no"
                                                            : "yes"});
    pair.addRow({"Circuitformer", formatDouble(cf_pair[0].timing_ps, 1),
                 formatDouble(cf_pair[1].timing_ps, 1),
                 cf_pair[0].timing_ps < cf_pair[1].timing_ps ? "yes"
                                                             : "no"});
    pair.print(std::cout);
    return 0;
}
