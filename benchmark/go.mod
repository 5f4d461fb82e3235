module nrmi/benchmark

go 1.24

require nrmi v0.0.0

replace nrmi => ../
