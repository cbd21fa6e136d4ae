// Textual front-end for Com programs.
//
// Grammar (comments start with '//' or '#' and run to end of line):
//
//   program  := "program" IDENT
//               "vars" IDENT*
//               "regs" IDENT*
//               "dom"  NUMBER
//               "begin" stmtseq "end"
//   stmtseq  := stmt (";" stmt)* [";"]
//   stmt     := "skip"
//             | "assume" "(" expr ")"
//             | "assert" "false"
//             | "cas" "(" VAR "," REG "," REG ")"
//             | "choice" block "or" block ("or" block)*
//             | "loop" block                      // c*
//             | "if" "(" expr ")" block ["else" block]
//             | "while" "(" expr ")" block
//             | REG ":=" expr                    // register assignment
//             | REG ":=" VAR                     // load
//             | VAR ":=" REG                     // store
//   block    := "{" stmtseq "}"
//   expr     := prec-climbing over || , && , (== != < <= > >=) , (+ -) , * ,
//               unary ! ; primaries: NUMBER, REG, "(" expr ")"
//
// Identifiers must be declared in the vars/regs lists; an identifier may
// not be both a var and a reg. `a > b` parses as `b < a`, `a >= b` as
// `b <= a`.
#ifndef RAPAR_LANG_PARSER_H_
#define RAPAR_LANG_PARSER_H_

#include <string>

#include "common/expected.h"
#include "lang/program.h"
#include "lang/source_loc.h"

namespace rapar {

// Parses a complete program. On error, the message contains the 1-based
// line and column of the offending token plus the offending source line
// with a caret (the same rendering analysis diagnostics use), and
// *error_at (when given) receives that position alone. Parsed statements
// carry their source positions (Stmt::loc).
Expected<Program> ParseProgram(const std::string& text,
                               SrcLoc* error_at = nullptr);

}  // namespace rapar

#endif  // RAPAR_LANG_PARSER_H_
