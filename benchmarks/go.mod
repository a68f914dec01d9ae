module gbpolar/benchmarks

go 1.22

require gbpolar v0.0.0

replace gbpolar => ../
