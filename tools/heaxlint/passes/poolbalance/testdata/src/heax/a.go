package heax

import "errors"

// Poly and pool mirror the shapes in internal/ring.
type Poly struct{ Coeffs [][]uint64 }

type Context struct{}

func (c *Context) GetPolyNoZero(n int) *Poly { return &Poly{} }
func (c *Context) PutPoly(p *Poly)           {}

var errBad = errors.New("heax: bad")

// The classic leak: an early error return between Get and Put.
func leaky(ctx *Context, fail bool) error {
	p := ctx.GetPolyNoZero(4) // want `can reach function exit without PutPoly`
	if fail {
		return errBad
	}
	ctx.PutPoly(p)
	return nil
}

func deferred(ctx *Context, fail bool) error {
	p := ctx.GetPolyNoZero(4)
	defer ctx.PutPoly(p)
	if fail {
		return errBad
	}
	return nil
}

func allPaths(ctx *Context, fail bool) error {
	p := ctx.GetPolyNoZero(4)
	if fail {
		ctx.PutPoly(p)
		return errBad
	}
	ctx.PutPoly(p)
	return nil
}

// The nil-guard pattern: the false edge of `b != nil` is impossible
// while b holds a pool buffer, so this balances.
func nilGuarded(ctx *Context, want bool) {
	var b *Poly
	if want {
		b = ctx.GetPolyNoZero(4)
	}
	if b != nil {
		ctx.PutPoly(b)
	}
}

// Returning the buffer transfers ownership to the caller.
func transferByReturn(ctx *Context) *Poly {
	p := ctx.GetPolyNoZero(4)
	return p
}

type holder struct{ p *Poly }

// Storing into a field is a transfer (the holder now owns it).
func transferByStore(ctx *Context, h *holder) {
	p := ctx.GetPolyNoZero(4)
	h.p = p
}

// A direct field store needs a matching defer or //heax:owns.
func storeUnbalanced(ctx *Context, h *holder) {
	h.p = ctx.GetPolyNoZero(4) // want `stored into h.p with no matching defer PutPoly`
}

func storeDeferred(ctx *Context, h *holder) {
	h.p = ctx.GetPolyNoZero(4)
	defer ctx.PutPoly(h.p)
}

func storeOwned(ctx *Context, h *holder) {
	//heax:owns the holder releases it
	h.p = ctx.GetPolyNoZero(4)
}

// A Get buried in a composite literal is unprovable without //heax:owns.
func subexpression(ctx *Context) {
	h := &holder{p: ctx.GetPolyNoZero(4)} // want `used as a subexpression`
	_ = h
}

func subexpressionOwned(ctx *Context) *holder {
	//heax:owns rides in the holder
	return &holder{p: ctx.GetPolyNoZero(4)}
}

// Put inside a loop body still covers the path out of the loop.
func loopBalanced(ctx *Context, n int) {
	for i := 0; i < n; i++ {
		p := ctx.GetPolyNoZero(4)
		ctx.PutPoly(p)
	}
}
