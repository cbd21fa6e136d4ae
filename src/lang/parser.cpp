#include "lang/parser.h"

#include <cctype>
#include <stdexcept>
#include <vector>

#include "common/strings.h"

namespace rapar {

namespace {

struct Token {
  enum class Kind { kIdent, kNumber, kSymbol, kEnd };
  Kind kind;
  std::string text;
  int line;
  int col;
};

// Thrown internally; converted to Expected::Error at the API boundary,
// where the carried position selects the caret snippet line.
struct ParseError : std::runtime_error {
  ParseError(const std::string& msg, int line, int col)
      : std::runtime_error(msg), line(line), col(col) {}
  int line;
  int col;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { Tokenize(); }
  const std::vector<Token>& tokens() const { return tokens_; }

 private:
  void Tokenize() {
    std::size_t i = 0;
    int line = 1, col = 1;
    auto advance = [&](std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) {
        if (text_[i + k] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      i += n;
    };
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance(1);
        continue;
      }
      if (c == '#' || (c == '/' && i + 1 < text_.size() && text_[i + 1] == '/')) {
        while (i < text_.size() && text_[i] != '\n') advance(1);
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        tokens_.push_back(
            {Token::Kind::kIdent, text_.substr(i, j - i), line, col});
        advance(j - i);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[j]))) {
          ++j;
        }
        tokens_.push_back(
            {Token::Kind::kNumber, text_.substr(i, j - i), line, col});
        advance(j - i);
        continue;
      }
      // Multi-char symbols first.
      static const char* kTwoChar[] = {":=", "==", "!=", "<=", ">=",
                                       "&&", "||"};
      bool matched = false;
      for (const char* sym : kTwoChar) {
        if (text_.compare(i, 2, sym) == 0) {
          tokens_.push_back({Token::Kind::kSymbol, sym, line, col});
          advance(2);
          matched = true;
          break;
        }
      }
      if (matched) continue;
      static const std::string kOneChar = ";,(){}<>!+-*";
      if (kOneChar.find(c) != std::string::npos) {
        tokens_.push_back({Token::Kind::kSymbol, std::string(1, c), line, col});
        advance(1);
        continue;
      }
      throw ParseError(StrCat("unexpected character '", c, "' at line ", line,
                              ", column ", col),
                       line, col);
    }
    tokens_.push_back({Token::Kind::kEnd, "<eof>", line, col});
  }

  const std::string& text_;
  std::vector<Token> tokens_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  Program Parse() {
    ExpectIdent("program");
    std::string name = TakeIdentText();
    ExpectIdent("vars");
    while (Peek().kind == Token::Kind::kIdent && Peek().text != "regs") {
      Declare(vars_, TakeIdentText());
    }
    ExpectIdent("regs");
    while (Peek().kind == Token::Kind::kIdent && Peek().text != "dom") {
      Declare(regs_, TakeIdentText());
    }
    ExpectIdent("dom");
    Value dom = TakeNumber();
    if (dom < 2) Fail("domain size must be at least 2");
    ExpectIdent("begin");
    StmtPtr body = ParseStmtSeq();
    ExpectIdent("end");
    if (Peek().kind != Token::Kind::kEnd) Fail("trailing input after 'end'");
    return Program(std::move(name), std::move(vars_), std::move(regs_), dom,
                   std::move(body));
  }

 private:
  // --- token helpers ---------------------------------------------------
  const Token& Peek(int ahead = 0) const {
    std::size_t i = pos_ + ahead;
    const auto& toks = lexer_.tokens();
    return i < toks.size() ? toks[i] : toks.back();
  }
  const Token& Take() { return lexer_.tokens()[pos_++]; }

  [[noreturn]] void Fail(const std::string& msg) const {
    FailAt(Peek(), msg);
  }

  [[noreturn]] static void FailAt(const Token& t, const std::string& msg) {
    throw ParseError(StrCat(msg, " (at line ", t.line, ", column ", t.col,
                            ", near '", t.text, "')"),
                     t.line, t.col);
  }

  bool AtIdent(const std::string& word) const {
    return Peek().kind == Token::Kind::kIdent && Peek().text == word;
  }
  bool AtSymbol(const std::string& sym) const {
    return Peek().kind == Token::Kind::kSymbol && Peek().text == sym;
  }
  void ExpectIdent(const std::string& word) {
    if (!AtIdent(word)) Fail(StrCat("expected '", word, "'"));
    Take();
  }
  void ExpectSymbol(const std::string& sym) {
    if (!AtSymbol(sym)) Fail(StrCat("expected '", sym, "'"));
    Take();
  }
  std::string TakeIdentText() {
    if (Peek().kind != Token::Kind::kIdent) Fail("expected identifier");
    return Take().text;
  }
  Value TakeNumber() {
    if (Peek().kind != Token::Kind::kNumber) Fail("expected number");
    return static_cast<Value>(std::stol(Take().text));
  }

  template <typename Table>
  void Declare(Table& table, const std::string& name) {
    if (vars_.Find(name).valid() || regs_.Find(name).valid()) {
      Fail(StrCat("duplicate declaration of '", name, "'"));
    }
    table.Add(name);
  }

  // Takes an identifier token and resolves it, reporting errors at the
  // identifier's own position.
  VarId TakeVar() {
    const Token t = TakeIdentToken();
    VarId v = vars_.Find(t.text);
    if (!v.valid()) {
      FailAt(t, StrCat("'", t.text, "' is not a declared variable"));
    }
    return v;
  }
  RegId TakeReg() {
    const Token t = TakeIdentToken();
    RegId r = regs_.Find(t.text);
    if (!r.valid()) {
      FailAt(t, StrCat("'", t.text, "' is not a declared register"));
    }
    return r;
  }
  Token TakeIdentToken() {
    if (Peek().kind != Token::Kind::kIdent) Fail("expected identifier");
    return Take();
  }

  // --- statements --------------------------------------------------------
  StmtPtr ParseStmtSeq() {
    std::vector<StmtPtr> stmts;
    stmts.push_back(ParseStmt());
    while (AtSymbol(";")) {
      Take();
      // Allow a trailing ';' before a closer.
      if (AtSymbol("}") || AtIdent("end")) break;
      stmts.push_back(ParseStmt());
    }
    return SSeqN(std::move(stmts));
  }

  StmtPtr ParseBlock() {
    ExpectSymbol("{");
    StmtPtr body = ParseStmtSeq();
    ExpectSymbol("}");
    return body;
  }

  // Parses one statement and stamps it with the position of its first
  // token (compound statements carry the position of the construct; their
  // children carry their own).
  StmtPtr ParseStmt() {
    const SrcLoc loc{Peek().line, Peek().col};
    return WithLoc(ParseStmtAt(), loc);
  }

  StmtPtr ParseStmtAt() {
    if (AtIdent("skip")) {
      Take();
      return SSkip();
    }
    if (AtIdent("assume")) {
      Take();
      ExpectSymbol("(");
      ExprPtr e = ParseExpr();
      ExpectSymbol(")");
      return SAssume(std::move(e));
    }
    if (AtIdent("assert")) {
      Take();
      ExpectIdent("false");
      return SAssertFail();
    }
    if (AtIdent("cas")) {
      Take();
      ExpectSymbol("(");
      VarId x = TakeVar();
      ExpectSymbol(",");
      RegId r1 = TakeReg();
      ExpectSymbol(",");
      RegId r2 = TakeReg();
      ExpectSymbol(")");
      return SCas(x, r1, r2);
    }
    if (AtIdent("choice")) {
      Take();
      std::vector<StmtPtr> branches;
      branches.push_back(ParseBlock());
      ExpectIdent("or");
      branches.push_back(ParseBlock());
      while (AtIdent("or")) {
        Take();
        branches.push_back(ParseBlock());
      }
      return SChoiceN(std::move(branches));
    }
    if (AtIdent("loop")) {
      Take();
      return SStar(ParseBlock());
    }
    if (AtIdent("if")) {
      Take();
      ExpectSymbol("(");
      ExprPtr e = ParseExpr();
      ExpectSymbol(")");
      StmtPtr then_branch = ParseBlock();
      StmtPtr else_branch = SSkip();
      if (AtIdent("else")) {
        Take();
        else_branch = ParseBlock();
      }
      return SIfElse(std::move(e), std::move(then_branch),
                     std::move(else_branch));
    }
    if (AtIdent("while")) {
      Take();
      ExpectSymbol("(");
      ExprPtr e = ParseExpr();
      ExpectSymbol(")");
      StmtPtr body = ParseBlock();
      return SWhile(std::move(e), std::move(body));
    }
    // Assignment / load / store.
    if (Peek().kind == Token::Kind::kIdent) {
      std::string lhs = TakeIdentText();
      ExpectSymbol(":=");
      VarId lvar = vars_.Find(lhs);
      RegId lreg = regs_.Find(lhs);
      if (lvar.valid()) {
        // store: VAR := REG
        RegId src = TakeReg();
        return SStore(lvar, src);
      }
      if (!lreg.valid()) Fail(StrCat("'", lhs, "' is not declared"));
      // load if rhs is a bare variable identifier
      if (Peek().kind == Token::Kind::kIdent &&
          vars_.Find(Peek().text).valid()) {
        VarId src = TakeVar();
        return SLoad(lreg, src);
      }
      ExprPtr e = ParseExpr();
      return SAssign(lreg, std::move(e));
    }
    Fail("expected a statement");
  }

  // --- expressions (precedence climbing) ----------------------------------
  ExprPtr ParseExpr() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    while (AtSymbol("||")) {
      Take();
      lhs = EOr(std::move(lhs), ParseAnd());
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseCmp();
    while (AtSymbol("&&")) {
      Take();
      lhs = EAnd(std::move(lhs), ParseCmp());
    }
    return lhs;
  }

  ExprPtr ParseCmp() {
    ExprPtr lhs = ParseAddSub();
    if (AtSymbol("==") || AtSymbol("!=") || AtSymbol("<") || AtSymbol("<=") ||
        AtSymbol(">") || AtSymbol(">=")) {
      std::string op = Take().text;
      ExprPtr rhs = ParseAddSub();
      if (op == "==") return EEq(std::move(lhs), std::move(rhs));
      if (op == "!=") return ENe(std::move(lhs), std::move(rhs));
      if (op == "<") return ELt(std::move(lhs), std::move(rhs));
      if (op == "<=") return ELe(std::move(lhs), std::move(rhs));
      if (op == ">") return ELt(std::move(rhs), std::move(lhs));
      return ELe(std::move(rhs), std::move(lhs));  // ">="
    }
    return lhs;
  }

  ExprPtr ParseAddSub() {
    ExprPtr lhs = ParseMul();
    while (AtSymbol("+") || AtSymbol("-")) {
      std::string op = Take().text;
      ExprPtr rhs = ParseMul();
      lhs = op == "+" ? EAdd(std::move(lhs), std::move(rhs))
                      : ESub(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr ParseMul() {
    ExprPtr lhs = ParseUnary();
    while (AtSymbol("*")) {
      Take();
      lhs = EMul(std::move(lhs), ParseUnary());
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (AtSymbol("!")) {
      Take();
      return ENot(ParseUnary());
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    if (Peek().kind == Token::Kind::kNumber) return EConst(TakeNumber());
    if (AtSymbol("(")) {
      Take();
      ExprPtr e = ParseExpr();
      ExpectSymbol(")");
      return e;
    }
    if (Peek().kind == Token::Kind::kIdent) {
      const Token t = TakeIdentToken();
      if (vars_.Find(t.text).valid()) {
        FailAt(t, StrCat("shared variable '", t.text,
                         "' cannot appear in an expression; load it into a "
                         "register first"));
      }
      RegId r = regs_.Find(t.text);
      if (!r.valid()) {
        FailAt(t, StrCat("'", t.text, "' is not a declared register"));
      }
      return EReg(r);
    }
    Fail("expected an expression");
  }

  Lexer lexer_;
  std::size_t pos_ = 0;
  VarTable vars_;
  RegTable regs_;
};

}  // namespace

Expected<Program> ParseProgram(const std::string& text, SrcLoc* error_at) {
  try {
    Parser parser(text);
    return parser.Parse();
  } catch (const ParseError& e) {
    if (error_at != nullptr) *error_at = SrcLoc{e.line, e.col};
    std::string msg = e.what();
    const std::string snippet = SourceCaret(text, e.line, e.col);
    if (!snippet.empty()) msg += "\n" + snippet;
    return Expected<Program>::Error(msg);
  }
}

}  // namespace rapar
