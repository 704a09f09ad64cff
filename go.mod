module tango

go 1.23
