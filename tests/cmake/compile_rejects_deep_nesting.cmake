# `paragraph-cli compile` on a source nested past the parser's limit (20,000
# parentheses, written at configure time) must exit 1 and name the nesting
# diagnostic with its location, and must write no output file.
#
# Usage: cmake -DCLI=... -DSOURCE=... -DOUT=... -P compile_rejects_deep_nesting.cmake
file(REMOVE "${OUT}")
execute_process(COMMAND "${CLI}" compile "${SOURCE}" -o "${OUT}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "compile exited ${rc} (want 1): ${out}${err}")
endif()
if(NOT err MATCHES "1:[0-9]+: error: nesting deeper than 256 levels")
  message(FATAL_ERROR "compile did not report the nesting limit:\n${out}${err}")
endif()
if(EXISTS "${OUT}")
  message(FATAL_ERROR "compile wrote ${OUT} for a rejected source")
endif()
