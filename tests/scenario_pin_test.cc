// Pins the audited report of every scenario cell, so a refactor of the
// harness or the runtimes that is meant to change nothing can show that
// nothing moved.  One line per cell: the cell's name, then the integers
//
//   history_digest committed slots sim_time sent bytes_sent
//   latency.count latency.p99 proposal_bytes miss_recoveries
//
// The cells: every all_workloads() x all_fault_profiles() pair at seed 1;
// crash_rejoin (fresh and stale) for both block workloads, and fresh
// under compact relay for the block storm; the respend storm under
// byzantine_equivocate; multi-proposer at P = 4 under lossy_dup and
// partition_heal; compact relay under lossy_dup and partition_heal for
// the block storm, mixed_sync_tiers and two-group zipfian shards; the
// three token races.
//
// On a mismatch the test prints the whole new table.  A deliberate
// behaviour change is refreshed by pasting that table over kPinned.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "core/erc721_consensus.h"
#include "core/erc777_consensus.h"
#include "core/kat_consensus.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

std::string row(const std::string& name, const ScenarioReport& r) {
  std::string s = name;
  for (const std::uint64_t v :
       {r.history_digest, std::uint64_t{r.committed}, std::uint64_t{r.slots},
        r.sim_time, r.net.sent, r.net.bytes_sent, r.latency.count,
        r.latency.p99, r.proposal_bytes, r.miss_recoveries}) {
    s += ' ';
    s += std::to_string(v);
  }
  return s;
}

ScenarioConfig cell(Workload w, FaultProfile f) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.seed = 1;
  return c;
}

std::string name_of(const ScenarioConfig& c) {
  return std::string(to_string(c.workload)) + "/" + to_string(c.fault);
}

std::vector<std::string> current_table() {
  std::vector<std::string> t;
  const auto add = [&t](const std::string& suffix, const ScenarioConfig& c) {
    t.push_back(row(name_of(c) + suffix, run_scenario(c)));
  };
  for (const Workload w : all_workloads()) {
    for (const FaultProfile f : all_fault_profiles()) add("", cell(w, f));
  }
  for (const Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedBlockEscalate}) {
    for (const bool stale : {false, true}) {
      ScenarioConfig c = cell(w, FaultProfile::kCrashRejoin);
      c.snapshot_interval = 2;
      c.prune = true;
      c.rejoin_stale = stale;
      add(stale ? "/stale" : "/fresh", c);
    }
  }
  ScenarioConfig rejoin =
      cell(Workload::kErc20BlockStorm, FaultProfile::kCrashRejoin);
  rejoin.snapshot_interval = 2;
  rejoin.prune = true;
  rejoin.relay_mode = RelayMode::kCompact;
  add("/fresh/compact", rejoin);
  add("", cell(Workload::kErc20RespendStorm,
               FaultProfile::kByzantineEquivocate));
  // The two reference-ordering designs' recover-on-miss, under loss and
  // under a partition.
  for (const FaultProfile f :
       {FaultProfile::kLossyDup, FaultProfile::kPartitionHeal}) {
    ScenarioConfig mp = cell(Workload::kErc20MultiproposerStorm, f);
    mp.num_proposers = 4;
    add("/p4", mp);
  }
  for (const FaultProfile f :
       {FaultProfile::kLossyDup, FaultProfile::kPartitionHeal}) {
    for (const Workload w :
         {Workload::kErc20BlockStorm, Workload::kMixedSyncTiers,
          Workload::kErc20ZipfianShards}) {
      ScenarioConfig c = cell(w, f);
      c.relay_mode = RelayMode::kCompact;
      if (w == Workload::kErc20ZipfianShards) c.num_groups = 2;
      add("/compact", c);
    }
  }
  t.push_back(row("race_kat/lossy", run_token_race_scenario<KatRaceSpec>(
                                        4, FaultProfile::kLossyLinks, 1,
                                        "race_kat")));
  t.push_back(row("race_erc721/lossy_dup",
                  run_token_race_scenario<Erc721RaceSpec>(
                      4, FaultProfile::kLossyDup, 1, "race_erc721")));
  t.push_back(row("race_erc777/minority_crash",
                  run_token_race_scenario<Erc777RaceSpec>(
                      4, FaultProfile::kMinorityCrash, 1, "race_erc777")));
  return t;
}

const char* const kPinned[] = {
    "erc20_transfer_storm/none 6664993495308399681 28 28 1048 1129 82012 28 804 0 0",
    "erc20_transfer_storm/lossy 6664993495308399681 28 28 2515 1569 114528 28 2293 0 0",
    "erc20_transfer_storm/lossy_dup 6664993495308399681 28 28 1483 1412 102716 28 1261 0 0",
    "erc20_transfer_storm/partition_heal 5944575148102705701 28 28 1158 1664 126728 28 937 0 0",
    "erc20_transfer_storm/minority_crash 8061428357823828734 22 22 1199 818 60488 21 982 0 0",
    "erc721_mint_trade_race/none 17412467463053847640 32 32 1138 1240 90628 32 827 0 0",
    "erc721_mint_trade_race/lossy 7841931037373722210 32 32 2378 1798 131992 32 1993 0 0",
    "erc721_mint_trade_race/lossy_dup 5048081592677411071 32 32 1705 1756 128332 32 1391 0 0",
    "erc721_mint_trade_race/partition_heal 9775055143536912969 32 32 1234 1919 148412 32 844 0 0",
    "erc721_mint_trade_race/minority_crash 9465825652471406148 24 24 1095 732 54732 24 716 0 0",
    "erc777_approve_burn/none 13775348644272469949 21 21 878 851 62132 21 690 0 0",
    "erc777_approve_burn/lossy 16112166851912080055 21 21 2483 1415 103088 21 2226 0 0",
    "erc777_approve_burn/lossy_dup 16785734384727911671 21 21 1218 1098 80784 21 1015 0 0",
    "erc777_approve_burn/partition_heal 13775348644272469949 21 21 917 1658 128576 21 719 0 0",
    "erc777_approve_burn/minority_crash 13775348644272469949 21 21 895 695 51104 21 706 0 0",
    "dyntoken_reconfig/none 15636365451654207437 29 29 879 983 69952 0 0 0 0",
    "dyntoken_reconfig/lossy 4409852921336327934 29 29 2469 1173 84072 0 0 0 0",
    "dyntoken_reconfig/lossy_dup 15636365451654207437 29 29 1562 1184 85336 0 0 0 0",
    "dyntoken_reconfig/partition_heal 15636365451654207437 29 29 1334 1226 89304 0 0 0 0",
    "dyntoken_reconfig/minority_crash 15636365451654207437 29 29 1037 837 60608 0 0 0 0",
    "at_bcast_payments/none 13903439485313469963 24 24 114 922 66384 0 0 0 0",
    "at_bcast_payments/lossy 13903439485313469963 24 24 262 1001 72720 0 0 0 0",
    "at_bcast_payments/lossy_dup 13903439485313469963 24 24 210 1041 74736 0 0 0 0",
    "at_bcast_payments/partition_heal 13903439485313469963 24 24 764 1733 131456 0 0 0 0",
    "at_bcast_payments/minority_crash 15736932774887498571 22 22 112 681 49296 0 0 0 0",
    "erc20_block_storm/none 5549791008959903716 72 19 767 838 141716 19 533 9080 0",
    "erc20_block_storm/lossy 10434823453193259512 72 19 1576 1154 200816 19 1324 9080 0",
    "erc20_block_storm/lossy_dup 17059786171626132584 72 19 1094 1101 185184 19 854 9080 0",
    "erc20_block_storm/partition_heal 4272327843773201432 72 19 1111 945 195000 19 850 9080 0",
    "erc20_block_storm/minority_crash 8839687227939427600 57 15 756 570 102872 14 522 7188 0",
    "mixed_block_escalate/none 6540553536036115207 72 20 788 859 142992 20 534 9088 0",
    "mixed_block_escalate/lossy 17048384114010189373 72 20 1591 1174 202876 20 1325 9088 0",
    "mixed_block_escalate/lossy_dup 12978628616855595727 72 20 1139 1132 192760 20 865 9088 0",
    "mixed_block_escalate/partition_heal 12414520321268588737 72 20 1151 979 197248 20 858 9088 0",
    "mixed_block_escalate/minority_crash 2029474467582296572 56 16 790 588 102696 15 524 7072 0",
    "erc20_fastlane_storm/none 13741202946841785549 72 0 224 2684 338360 72 0 0 0",
    "erc20_fastlane_storm/lossy 13741202946841785549 72 0 373 2987 392072 72 0 0 0",
    "erc20_fastlane_storm/lossy_dup 13741202946841785549 72 0 372 3054 379200 72 0 0 0",
    "erc20_fastlane_storm/partition_heal 13741202946841785549 72 0 875 5127 813492 72 0 0 0",
    "erc20_fastlane_storm/minority_crash 13741202946841785549 72 0 221 2446 314020 54 0 0 0",
    "mixed_sync_tiers/none 4784446493299619061 61 13 554 2473 306816 61 335 2132 0",
    "mixed_sync_tiers/lossy 11980095208779196793 61 13 1441 2912 364964 61 1122 2132 0",
    "mixed_sync_tiers/lossy_dup 1988614429817854403 61 13 986 2959 356180 61 719 2132 0",
    "mixed_sync_tiers/partition_heal 3198210378353810146 61 13 1024 4380 677288 61 786 2132 0",
    "mixed_sync_tiers/minority_crash 1354799311469856961 50 11 567 1502 190904 46 306 1804 0",
    "erc20_zipfian_shards/none 3073241439597916711 72 19 767 838 152612 19 533 10232 0",
    "erc20_zipfian_shards/lossy 13481818964892061525 72 19 1576 1154 216496 19 1324 10232 0",
    "erc20_zipfian_shards/lossy_dup 9016573088167598667 72 19 1094 1101 199344 19 854 10232 0",
    "erc20_zipfian_shards/partition_heal 1563917278763477149 72 19 1111 945 211640 19 850 10232 0",
    "erc20_zipfian_shards/minority_crash 10875705470906107938 57 15 756 570 111080 14 522 8100 0",
    "erc20_block_storm/crash_rejoin/fresh 1697053176164205828 57 15 2020 1152 192356 14 1358 7188 0",
    "erc20_block_storm/crash_rejoin/stale 1697053176164205828 57 15 2017 1266 239032 14 1261 7188 0",
    "mixed_block_escalate/crash_rejoin/fresh 3882550650531159328 56 16 2016 1189 181888 15 1360 7072 0",
    "mixed_block_escalate/crash_rejoin/stale 3882550650531159328 56 16 2019 1305 214632 15 1261 7072 0",
    "erc20_block_storm/crash_rejoin/fresh/compact 1697053176164205828 57 15 2017 1365 162028 14 1177 756 11",
    "erc20_respend_storm/byzantine_equivocate 10743346445938458034 55 0 225 5142 908940 55 30 0 0",
    "erc20_multiproposer_storm/lossy_dup/p4 1893969325025421860 96 7 527 597 100808 96 202 532 8",
    "erc20_multiproposer_storm/partition_heal/p4 1073707654876798748 96 5 977 511 110524 96 767 508 6",
    "erc20_block_storm/lossy_dup/compact 17059786171626132584 72 19 1094 1171 124032 19 854 956 5",
    "mixed_sync_tiers/lossy_dup/compact 1988614429817854403 61 13 986 3006 341028 61 719 624 4",
    "erc20_zipfian_shards/lossy_dup/compact 8258378656632542200 213 70 2692 4229 437676 70 1381 3104 26",
    "erc20_block_storm/partition_heal/compact 4272327843773201432 72 19 1151 1060 131148 19 850 956 23",
    "mixed_sync_tiers/partition_heal/compact 3198210378353810146 61 13 1056 4451 668096 61 786 624 13",
    "erc20_zipfian_shards/partition_heal/compact 6891244494839418964 169 62 2033 3688 389140 62 910 2592 58",
    "race_kat/lossy 6762826402226871273 8 8 1040 701 49092 8 844 0 0",
    "race_erc721/lossy_dup 9347808088274582091 8 8 411 519 36464 8 246 0 0",
    "race_erc777/minority_crash 15811052539292711600 7 7 441 359 25020 6 275 0 0",
};

TEST(ScenarioPin, EveryCellMatchesItsPinnedReport) {
  const std::vector<std::string> table = current_table();
  const std::vector<std::string> pinned(std::begin(kPinned),
                                        std::end(kPinned));
  if (table == pinned) return;
  std::string moved;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i >= pinned.size() || table[i] != pinned[i]) {
      moved += "  now:    " + table[i] + "\n";
      if (i < pinned.size()) moved += "  pinned: " + pinned[i] + "\n";
    }
  }
  std::string dump;
  for (const std::string& line : table) dump += "    \"" + line + "\",\n";
  ADD_FAILURE() << table.size() << " cells, " << pinned.size()
                << " pinned; rows that moved:\n"
                << moved << "the whole new table:\n"
                << dump;
}

}  // namespace
}  // namespace tokensync
