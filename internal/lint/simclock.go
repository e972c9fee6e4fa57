package lint

import (
	"go/ast"
	"go/types"
)

// SimClock forbids wall-clock time and the global math/rand stream in
// simulator-driven code. Virtual time comes from the sim.Engine clock
// (Engine.Now, Proc.Sleep); randomness comes from the seeded
// Engine.Rand(). Wall-clock reads make run length depend on host load,
// and the global rand stream is shared process state that breaks
// fixed-seed reproducibility (and is racy under -race with parallel
// tests). Any reference into crypto/rand is flagged too: it reads the
// operating system's entropy pool, which no seed reproduces.
// Constructing seeded sources (rand.New, rand.NewSource, rand.NewZipf,
// rand.NewPCG, ...) stays legal.
var SimClock = &Analyzer{
	Name:      "simclock",
	Doc:       "forbid wall-clock time, global math/rand and crypto/rand in simulator-driven code",
	AppliesTo: determinismCritical,
	Run:       runSimClock,
}

// bannedTime is the subset of package time that observes or waits on
// the host clock. Pure arithmetic (time.Duration, time.Unix) is fine.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand is the subset of math/rand{,/v2} package-level functions
// that build explicitly-seeded sources rather than using the global one.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runSimClock(pass *Pass) {
	walkStack(pass, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		pkg, name := obj.Pkg().Path(), obj.Name()
		switch {
		case pkg == "time" && bannedTime[name]:
			pass.Reportf(sel.Pos(), "time.%s reads the host clock; simulator-driven code must use the sim.Engine virtual clock (Engine.Now, Proc.Sleep)", name)
		case (pkg == "math/rand" || pkg == "math/rand/v2") && !allowedRand[name] && isPackageLevelFunc(obj),
			pkg == "crypto/rand":
			pass.Reportf(sel.Pos(), "global %s.%s breaks fixed-seed reproducibility; draw from the seeded Engine.Rand() instead", pkgBase(pkg), name)
		}
		return true
	})
}

// isPackageLevelFunc reports whether obj is a package-level function
// (not a method, not a type or variable, not rand.Rand methods).
func isPackageLevelFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func pkgBase(path string) string {
	switch path {
	case "math/rand/v2":
		return "rand/v2"
	case "crypto/rand":
		return path
	}
	return "rand"
}
