# Layering check: the modules below the Engine (util, march, fault, fsm,
# sim, word, atsp) include nothing from the layers built on them (engine,
# net, diagnosis, setcover, synth, core, baseline). Among the lower
# modules, word/ builds on sim/, so sim/ includes nothing from word/, and
# both build on fault/, so fault/ includes nothing from sim/ or word/.
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

# Appends to `violations` every line of `module` that includes a header
# of a module matching `pattern`.
function(check_includes module pattern)
  file(GLOB_RECURSE sources
       "${SRC_DIR}/${module}/*.hpp" "${SRC_DIR}/${module}/*.cpp")
  foreach(source IN LISTS sources)
    file(STRINGS "${source}" includes
         REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](${pattern})/")
    file(RELATIVE_PATH relative "${SRC_DIR}" "${source}")
    foreach(line IN LISTS includes)
      list(APPEND violations "${relative}: ${line}")
    endforeach()
  endforeach()
  set(violations "${violations}" PARENT_SCOPE)
endfunction()

set(violations "")
foreach(module IN LISTS lower_modules)
  check_includes(${module} "${upper_pattern}")
endforeach()
check_includes(sim word)
check_includes(fault "sim|word")

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
          "a module includes a layer built on it:\n  ${report}")
endif()
message(STATUS "layering_test: no module includes a layer built on it")
