# Layering check: the modules below the Engine (util, march, fault, fsm,
# sim, word, atsp) include nothing from the layers built on them (engine,
# net, diagnosis, setcover, synth, core, baseline).
#
#   cmake -DSRC_DIR=<repo>/src -P tests/layering_test.cmake
#
# ctest runs it as `layering_test`; it fails listing every offending line.

if(NOT SRC_DIR)
  message(FATAL_ERROR "layering_test: pass -DSRC_DIR=<path to src>")
endif()

set(lower_modules util march fault fsm sim word atsp)
set(upper_modules engine net diagnosis setcover synth core baseline)
list(JOIN upper_modules "|" upper_pattern)

set(violations "")
foreach(module IN LISTS lower_modules)
  file(GLOB_RECURSE sources
       "${SRC_DIR}/${module}/*.hpp" "${SRC_DIR}/${module}/*.cpp")
  foreach(source IN LISTS sources)
    file(STRINGS "${source}" includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](${upper_pattern})/")
    file(RELATIVE_PATH relative "${SRC_DIR}" "${source}")
    foreach(line IN LISTS includes)
      list(APPEND violations "${relative}: ${line}")
    endforeach()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "a module below the Engine includes a layer above it:\n  ${report}")
endif()
message(STATUS "layering_test: no lower module includes an upper layer")
