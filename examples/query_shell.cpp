// An interactive shell over the library: load relations from CSV files,
// type calculus queries, inspect canonical forms and algebra plans.
//
//   ./build/examples/query_shell [name=file.csv ...]
//
// Commands:
//   { x | p(x) & ... }        run an open query
//   exists x: p(x) & ...      run a closed query
//   .load <name> <file.csv>   register a relation from CSV
//   .rel <name> a,b\n c,d ;   define a relation inline (rows until ';')
//                             Both need at least one row: it fixes the
//                             relation's arity.
//   .relations                list relations
//   .explain <query>          show canonical form + plan without running
//   .explain physical <query> show the lowered physical operator tree
//   .cost <query>             plan annotated with cost-model estimates
//   .view <name> <query>      define a view, e.g. .view v { x | p(x) }
//   .index <name> <column>    build a hash index (0-based column)
//   .save <dir> / .open <dir> persist / load the whole database
//   .domclose                 toggle Domain Closure mode (§2.1)
//   .strategy <name>          bry | bry-division | bry-union-filters |
//                             quel-counting | classical | nested-loop
//   .columnar on|off          build column stores and let the lowering
//                             pick zone-pruned columnar scans (off =
//                             row path only; answers never change)
//   .service                  toggle the fault-tolerant front door
//                             (DESIGN.md §9): admission, retries,
//                             degradation; pairs with BRYQL_FAILPOINTS
//   .quit
//
// With failpoints compiled in (-DBRYQL_FAILPOINTS=ON), the environment
// variable BRYQL_FAILPOINTS arms fault injection at startup, e.g.
//   BRYQL_FAILPOINTS='exec.scan.open=p0.2@seed7' ./query_shell
// and `.service` shows the retry machinery riding out the faults.

#include <iostream>
#include <sstream>
#include <string>

#include "algebra/cost_model.h"
#include "common/failpoints.h"
#include "core/query_processor.h"
#include "service/service.h"
#include "storage/csv.h"

using namespace bryql;

namespace {

Strategy ParseStrategy(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "bry") return Strategy::kBry;
  if (name == "bry-division") return Strategy::kBryDivision;
  if (name == "bry-union-filters") return Strategy::kBryUnionFilters;
  if (name == "quel-counting") return Strategy::kQuelCounting;
  if (name == "classical") return Strategy::kClassical;
  if (name == "nested-loop") return Strategy::kNestedLoop;
  *ok = false;
  return Strategy::kBry;
}

/// Registers the relation `rel` holds as `name`, or returns why not. A
/// relation with no rows is refused: no row fixes its arity, so every
/// later atom over it would fail with an arity clash.
Status DefineRelation(Database* db, const std::string& name,
                      Result<Relation> rel) {
  if (!rel.ok()) return rel.status();
  if (rel->size() == 0) {
    return Status::InvalidArgument("relation '" + name +
                                   "' needs at least one row to fix its arity");
  }
  db->Put(name, std::move(*rel));
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  Database db;
  ViewSet views;
  Strategy strategy = Strategy::kBry;
  bool domain_closure = false;
  bool use_service = false;
  bool use_columnar = false;

  // Arms any faults requested via the BRYQL_FAILPOINTS environment
  // variable (no-op when unset or when failpoints are compiled out).
  Status fp = failpoints::InitFromEnv();
  if (!fp.ok()) std::cerr << "BRYQL_FAILPOINTS: " << fp << "\n";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::cerr << "ignoring argument '" << arg << "' (want name=file.csv)\n";
      continue;
    }
    Status defined = DefineRelation(&db, arg.substr(0, eq),
                                    RelationFromCsvFile(arg.substr(eq + 1)));
    if (!defined.ok()) {
      std::cerr << defined << "\n";
      return 1;
    }
    std::cout << "loaded " << arg.substr(0, eq) << "\n";
  }

  std::cout << "bryql shell — type a query, or .help\n";
  std::string line;
  while (std::cout << "bryql> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::cout << "queries: { x | p(x) & ... } or a closed formula\n"
                << "commands: .load name file.csv | .rel name rows... ; |\n"
                << "          .relations | .explain <query> | "
                   ".explain physical <query> |\n"
                << "          .strategy <name> | .columnar on|off | "
                   ".service | .quit\n";
      continue;
    }
    if (line == ".relations") {
      for (const std::string& name : db.Names()) {
        auto rel = db.Get(name);
        std::cout << "  " << name << "/" << (*rel)->arity() << " ("
                  << (*rel)->size() << " tuples)\n";
      }
      continue;
    }
    if (line.rfind(".strategy ", 0) == 0) {
      bool ok = false;
      Strategy s = ParseStrategy(line.substr(10), &ok);
      if (ok) {
        strategy = s;
        std::cout << "strategy = " << StrategyName(strategy) << "\n";
      } else {
        std::cout << "unknown strategy\n";
      }
      continue;
    }
    if (line == ".columnar on" || line == ".columnar off") {
      use_columnar = line == ".columnar on";
      if (use_columnar) db.EnableColumnarAll();
      std::cout << "columnar " << (use_columnar ? "on" : "off")
                << (use_columnar ? " (column stores built, zone-pruned scans)"
                                 : " (row path)")
                << "\n";
      continue;
    }
    if (line == ".service") {
      use_service = !use_service;
      std::cout << "service " << (use_service ? "on" : "off")
                << (use_service ? " (admission + retries + degradation)"
                                : "")
                << "\n";
      continue;
    }
    if (line.rfind(".view ", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::string name;
      in >> name;
      std::string body;
      std::getline(in, body);
      Status st = views.DefineFromText(name, body);
      std::cout << (st.ok() ? "view defined" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".index ", 0) == 0) {
      std::istringstream in(line.substr(7));
      std::string name;
      size_t column = 0;
      in >> name >> column;
      Status st = db.BuildIndex(name, column);
      std::cout << (st.ok() ? "index built" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".save ", 0) == 0) {
      Status st = SaveDatabase(db, line.substr(6));
      std::cout << (st.ok() ? "saved" : st.ToString()) << "\n";
      continue;
    }
    if (line.rfind(".open ", 0) == 0) {
      auto loaded = LoadDatabase(line.substr(6));
      if (!loaded.ok()) {
        std::cout << loaded.status() << "\n";
        continue;
      }
      db = std::move(*loaded);
      std::cout << "opened (" << db.Names().size() << " relations)\n";
      continue;
    }
    if (line == ".domclose") {
      domain_closure = !domain_closure;
      std::cout << "domain closure "
                << (domain_closure ? "on" : "off") << "\n";
      continue;
    }
    if (line.rfind(".load ", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::string name, file;
      in >> name >> file;
      Status defined = DefineRelation(&db, name, RelationFromCsvFile(file));
      if (!defined.ok()) {
        std::cout << defined << "\n";
        continue;
      }
      std::cout << "loaded " << name << "\n";
      continue;
    }
    if (line.rfind(".rel ", 0) == 0) {
      std::istringstream in(line.substr(5));
      std::string name;
      in >> name;
      std::string rows, row_line;
      std::getline(in, row_line);
      rows = row_line;
      while (rows.find(';') == std::string::npos &&
             std::getline(std::cin, row_line)) {
        rows += "\n" + row_line;
      }
      size_t semi = rows.find(';');
      if (semi != std::string::npos) rows.resize(semi);
      Status defined = DefineRelation(&db, name, RelationFromCsv(rows));
      if (!defined.ok()) {
        std::cout << defined << "\n";
        continue;
      }
      std::cout << "defined " << name << "\n";
      continue;
    }
    // Relations loaded after `.columnar on` get their stores here;
    // EnableColumnarAll only builds what is missing, so this is cheap.
    if (use_columnar) db.EnableColumnarAll();
    QueryProcessor qp(&db);
    qp.SetViews(&views);
    qp.EnableDomainClosure(domain_closure);
    if (!use_columnar) {
      ExecOptions exec_options;
      exec_options.use_columnar = false;
      qp.SetExecOptions(exec_options);
    }
    if (line.rfind(".cost ", 0) == 0) {
      auto exec = qp.Explain(line.substr(6), strategy);
      if (!exec.ok() || exec->plan == nullptr) {
        std::cout << (exec.ok() ? Status::Unsupported(
                                      "no algebraic plan for this strategy")
                                : exec.status())
                  << "\n";
        continue;
      }
      CostModel model(&db);
      auto annotated = model.Annotate(exec->plan);
      std::cout << (annotated.ok() ? *annotated
                                   : annotated.status().ToString());
      continue;
    }
    if (line.rfind(".explain physical ", 0) == 0) {
      auto exec = qp.Explain(line.substr(18), strategy);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      if (exec->physical != nullptr) {
        std::cout << exec->physical->ToString();
      } else {
        std::cout << "no physical plan for this strategy\n";
      }
      continue;
    }
    if (line.rfind(".explain ", 0) == 0) {
      auto exec = qp.Explain(line.substr(9), strategy);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      if (exec->canonical != nullptr) {
        std::cout << "canonical: " << exec->canonical->ToString() << "\n";
      }
      if (exec->plan != nullptr) {
        std::cout << exec->plan->ToString();
      }
      continue;
    }
    Execution execution;
    if (use_service) {
      QueryService service(&qp);
      auto reply = service.Run(line, strategy);
      if (!reply.ok()) {
        std::cout << reply.status() << "\n";
        continue;
      }
      if (reply->attempts > 1 || reply->degradation_level > 0) {
        std::cout << "-- service: " << reply->attempts << " attempt(s), "
                  << "degradation level " << reply->degradation_level
                  << (reply->degradation_level > 0 ? " (plan cache bypassed)"
                                                   : "")
                  << "\n";
      }
      execution = std::move(reply->execution);
    } else {
      auto exec = qp.Run(line, strategy);
      if (!exec.ok()) {
        std::cout << exec.status() << "\n";
        continue;
      }
      execution = std::move(*exec);
    }
    if (execution.answer.closed) {
      std::cout << (execution.answer.truth ? "true" : "false") << "\n";
    } else {
      std::cout << execution.answer.relation.ToString();
    }
    std::cout << "-- " << execution.stats.ToString() << "\n";
  }
  return 0;
}
