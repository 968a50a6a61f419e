"""Independent oracles the test suite and the hot-path bench check the program against."""
