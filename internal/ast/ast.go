// Package ast defines the abstract syntax tree of the small MPI-C dialect
// in which the synthetic benchmark programs are written. The dataset
// generators build these trees, the renderer prints them as C source (used
// for the code-size studies of Fig. 2), and internal/irgen lowers them to
// IR — playing the role clang plays in the paper.
package ast

// TKind enumerates the C-level types of the dialect.
type TKind int

// Type kinds.
const (
	TVoid TKind = iota
	TInt
	TDouble
	TChar
	TPtr
	TArray
	TMPIRequest
	TMPIStatus
	TMPIComm
	TMPIDatatype
	TMPIWin
	TMPIOp
)

// Type is a C-level type.
type Type struct {
	Kind TKind
	Elem *Type // for TPtr and TArray
	Len  int   // for TArray
}

// Convenience type singletons.
var (
	Int      = &Type{Kind: TInt}
	Double   = &Type{Kind: TDouble}
	Request  = &Type{Kind: TMPIRequest}
	Comm     = &Type{Kind: TMPIComm}
	Datatype = &Type{Kind: TMPIDatatype}
	Win      = &Type{Kind: TMPIWin}
)

// ArrayOf returns the array type elem[n].
func ArrayOf(n int, elem *Type) *Type { return &Type{Kind: TArray, Len: n, Elem: elem} }

// CName returns the C spelling of the type.
func (t *Type) CName() string {
	switch t.Kind {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TDouble:
		return "double"
	case TChar:
		return "char"
	case TPtr:
		return t.Elem.CName() + "*"
	case TArray:
		return t.Elem.CName() // suffix printed at the declarator
	case TMPIRequest:
		return "MPI_Request"
	case TMPIStatus:
		return "MPI_Status"
	case TMPIComm:
		return "MPI_Comm"
	case TMPIDatatype:
		return "MPI_Datatype"
	case TMPIWin:
		return "MPI_Win"
	case TMPIOp:
		return "MPI_Op"
	}
	return "?"
}

// Program is a translation unit.
type Program struct {
	Name     string
	Includes []string
	Funcs    []*FuncDecl
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Ret    *Type
	Params []*ParamDecl
	Body   *BlockStmt
}

// ParamDecl is a function parameter.
type ParamDecl struct {
	Name string
	Type *Type
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Expr is an expression node.
type Expr interface{ expr() }

// BlockStmt is a `{ ... }` statement list.
type BlockStmt struct{ Stmts []Stmt }

// DeclStmt declares a local variable, optionally initialised.
type DeclStmt struct {
	Name string
	Type *Type
	Init Expr // may be nil
}

// AssignStmt assigns RHS to the lvalue LHS.
type AssignStmt struct {
	LHS Expr // Ident, IndexExpr or DerefExpr
	RHS Expr
}

// ExprStmt evaluates X for its side effects.
type ExprStmt struct{ X Expr }

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // may be nil
}

// ForStmt is a C for loop; Init/Post may be nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body *BlockStmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
}

// ReturnStmt returns X (possibly nil for void).
type ReturnStmt struct{ X Expr }

func (*BlockStmt) stmt()  {}
func (*DeclStmt) stmt()   {}
func (*AssignStmt) stmt() {}
func (*ExprStmt) stmt()   {}
func (*IfStmt) stmt()     {}
func (*ForStmt) stmt()    {}
func (*WhileStmt) stmt()  {}
func (*ReturnStmt) stmt() {}

// IntLit is an integer literal.
type IntLit struct{ V int64 }

// FloatLit is a floating literal.
type FloatLit struct{ V float64 }

// StrLit is a string literal (printf formats).
type StrLit struct{ S string }

// Ident names a variable or an MPI constant (MPI_COMM_WORLD, MPI_INT, ...).
type Ident struct{ Name string }

// BinExpr is a binary operation; Op is the C spelling (+ - * / % == != < <=
// > >= && || & | ^ << >>).
type BinExpr struct {
	Op   string
	X, Y Expr
}

// UnExpr is a unary operation; Op is "-" or "!".
type UnExpr struct {
	Op string
	X  Expr
}

// IndexExpr is X[I].
type IndexExpr struct {
	X Expr
	I Expr
}

// CallExpr calls a named function.
type CallExpr struct {
	Name string
	Args []Expr
}

// AddrExpr is &X.
type AddrExpr struct{ X Expr }

// DerefExpr is *X.
type DerefExpr struct{ X Expr }

func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*StrLit) expr()    {}
func (*Ident) expr()     {}
func (*BinExpr) expr()   {}
func (*UnExpr) expr()    {}
func (*IndexExpr) expr() {}
func (*CallExpr) expr()  {}
func (*AddrExpr) expr()  {}
func (*DerefExpr) expr() {}
