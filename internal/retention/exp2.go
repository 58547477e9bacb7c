package retention

import "math"

// Exp2 returns 2**x, equal to math.Exp2(x) bit for bit (FuzzExp2 and
// TestExp2Edges hold it to that). It is the standard library's portable
// exp2 - the same argument reduction and the same expmulti polynomial - with
// the final scaling by 2**k done as an add to the exponent field instead of
// a call to math.Ldexp. That add equals Ldexp wherever the result is
// normal: the polynomial's value y lies within [1/sqrt2, sqrt2], so for
// |x| <= 1020 the result's exponent stays inside [-1022, 1023]. Every other
// x (NaN and the infinities included) goes to math.Exp2 itself.
//
// The decay walks call it once per sense, which on amd64 - where math.Exp2
// has no assembly kernel - saves the generic Ldexp's classification,
// normalisation and denormal handling on every call.
func Exp2(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10

		p1 = 1.66666666666666657415e-01
		p2 = -2.77777777770155933842e-03
		p3 = 6.61375632143793436117e-05
		p4 = -1.65339022054652515390e-06
		p5 = 4.13813679705723846039e-08
	)
	if !(x >= -1020 && x <= 1020) {
		return math.Exp2(x)
	}
	var k int
	switch {
	case x > 0:
		k = int(x + 0.5)
	case x < 0:
		k = int(x - 0.5)
	}
	t := x - float64(k)
	hi := t * ln2Hi
	lo := -t * ln2Lo
	r := hi - lo
	rr := r * r
	c := r - rr*(p1+rr*(p2+rr*(p3+rr*(p4+rr*p5))))
	y := 1 - ((lo - (r*c)/(2-c)) - hi)
	return math.Float64frombits(math.Float64bits(y) + uint64(int64(k))<<52)
}
