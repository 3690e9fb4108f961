# Codegen guard on the built library: the W=8 pass's zmm wrapper must be
# a real body, not a tail call into the generic pass, and the packed
# memory's write() must be inlined everywhere.
#
#   cmake -DNM=<nm> -DLIB=<path to libmtg.a> -P tests/codegen_test.cmake
#
# ctest runs it as `codegen_test` on x86-64 GCC optimised builds. It fails
# when `word_pass_avx512<0>` or `<1>` is missing or smaller than 4 KiB (a
# tail call is 5 bytes: GCC does not inline across a tune mismatch, so a
# `tune=` in the wrapper's target leaves `flatten` nothing to inline), or
# when any out-of-line `PackedWordMemoryT<...>::write(` is emitted (out of
# line it cost the width-1 pass about 10%).

if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "codegen_test: pass -DNM=<nm> -DLIB=<libmtg.a>")
endif()

execute_process(COMMAND "${NM}" -S -C "${LIB}"
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status
                ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "codegen_test: ${NM} -S -C ${LIB} failed (${status})")
endif()
# One list element per matching line; `;` would split a symbol name.
string(REPLACE ";" "," symbols "${symbols}")

set(failures "")
set(min_body 4096)
foreach(width 0 1)
  string(REGEX MATCHALL
         "[0-9a-f]+ [0-9a-f]+ [tTwW] [^\n]*::word_pass_avx512<${width}>\\([^\n]*"
         bodies "${symbols}")
  list(FILTER bodies EXCLUDE REGEX "\\[clone \\.cold\\]")
  if(NOT bodies)
    list(APPEND failures "word_pass_avx512<${width}> not found in ${LIB}")
  endif()
  foreach(line IN LISTS bodies)
    string(REGEX MATCH "^[0-9a-f]+ ([0-9a-f]+) " fields "${line}")
    math(EXPR size "0x${CMAKE_MATCH_1}" OUTPUT_FORMAT DECIMAL)
    if(size LESS min_body)
      list(APPEND failures
           "word_pass_avx512<${width}> is ${size} bytes (< ${min_body}): ${line}")
    endif()
  endforeach()
endforeach()

string(REGEX MATCHALL "[^\n]*PackedWordMemoryT<[^\n]*>::write\\([^\n]*"
       writes "${symbols}")
foreach(line IN LISTS writes)
  list(APPEND failures "out-of-line write(): ${line}")
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "codegen_test:\n  ${report}")
endif()
message(STATUS "codegen_test: zmm wrappers have real bodies, write() is inlined")
